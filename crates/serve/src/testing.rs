//! Test-only in-memory duplex stream that counts the `read` and `write`
//! calls made on each end — the stand-in for a socket when a test asserts
//! how many syscalls a frame costs.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// How often one end of a [`duplex`] was read from and written to.
#[derive(Debug, Default)]
pub(crate) struct CallCounts {
    reads: AtomicUsize,
    writes: AtomicUsize,
}

impl CallCounts {
    /// `read` calls so far, the one that reported end of stream included.
    pub(crate) fn reads(&self) -> usize {
        self.reads.load(Ordering::Relaxed)
    }

    /// `write` calls so far.
    pub(crate) fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }
}

/// One end of an in-memory connection. Every `write` travels as one message,
/// so a frame written whole is delivered whole; a `read` blocks until the
/// peer has written or hung up, like a socket's.
#[derive(Debug)]
pub(crate) struct Duplex {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    pending: VecDeque<u8>,
    counts: Arc<CallCounts>,
}

/// A connected pair of ends.
pub(crate) fn duplex() -> (Duplex, Duplex) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let end = |tx, rx| Duplex {
        tx,
        rx,
        pending: VecDeque::new(),
        counts: Arc::default(),
    };
    (end(a_tx, a_rx), end(b_tx, b_rx))
}

impl Duplex {
    /// This end's call counters; they outlive the end itself.
    pub(crate) fn counts(&self) -> Arc<CallCounts> {
        Arc::clone(&self.counts)
    }
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(bytes) => self.pending.extend(bytes),
                // The peer hung up: end of stream.
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.pending.len());
        for (slot, byte) in buf.iter_mut().zip(self.pending.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(buf.to_vec())
            .map_err(|_| std::io::ErrorKind::BrokenPipe)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
