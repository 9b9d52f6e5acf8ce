//! The machine's speed during a run, from a fixed calibration kernel.
//!
//! This benchmark runs on a virtual machine that shares its host. Over
//! minutes the host's other tenants slow everything on it down by up to a
//! factor of two, and every time metric moves with them: in eight
//! back-to-back `hot_reads` runs of the same code, `hit_ms_p50` ranged from
//! 0.55 to 1.10 ms while an earlier version of the kernel below ranged
//! from 1.47 to 3.08 ms.
//!
//! The kernel is the benchmark's own code and calls nothing of the
//! program's: it sorts 32K pseudo-random integers, formats 8K of them as
//! text, and reads a 400 KiB reply over a fresh loopback connection from a
//! responder thread, which covers the compute and socket work an op does.
//! Its buffers are allocated once: a kernel that allocated them on every
//! run took either ~2.0 or ~3.0 ms, depending on whether the allocator
//! had memory at hand, and its median flipped between the two from run
//! to run. It runs between ops every [`EVERY`] through the timed phase,
//! so it samples the machine at the same moments as the ops, and the time
//! metrics are reported at the kernel's nominal speed:
//! `value × NOMINAL_MS / median(kernel)`. A change to the program moves the
//! ops and not the kernel, so it shows in full; a slower host moves both
//! and largely cancels.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel's nominal time in ms: about its median on a quiet run of the
/// 2-vCPU machine the benchmark was tuned on, so scaled values read as ms
/// there.
pub const NOMINAL_MS: f64 = 1.4;
/// Least time between two kernel runs: up to 400 samples in 20 s.
pub const EVERY: Duration = Duration::from_millis(50);

/// Bytes the responder sends per connection.
const REPLY_BYTES: usize = 400 * 1024;
/// Integers sorted per run.
const NUMBERS: usize = 1 << 15;
/// Integers formatted per run.
const FORMATTED: usize = 8000;

/// The kernel, with its loopback responder and its buffers.
pub struct Calibrator {
    addr: SocketAddr,
    responder: Option<JoinHandle<()>>,
    buffers: RefCell<Buffers>,
}

#[derive(Default)]
struct Buffers {
    numbers: Vec<u64>,
    text: String,
    reply: Vec<u8>,
}

impl Calibrator {
    /// Starts the responder thread.
    pub fn start() -> std::io::Result<Calibrator> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let responder = std::thread::spawn(move || {
            let reply = vec![b'x'; REPLY_BYTES];
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { continue };
                let mut req = [0u8; 8];
                match conn.read(&mut req) {
                    Ok(n) if &req[..n] == b"stop" => return,
                    Ok(_) => {
                        let _ = conn.write_all(&reply);
                    }
                    Err(_) => {}
                }
            }
        });
        let buffers = RefCell::new(Buffers {
            numbers: Vec::with_capacity(NUMBERS),
            text: String::with_capacity(FORMATTED * 17),
            reply: Vec::with_capacity(REPLY_BYTES + 1),
        });
        Ok(Calibrator { addr, responder: Some(responder), buffers })
    }

    /// Runs the kernel once and records its parts' times.
    pub fn sample(&self, into: &mut Samples) -> std::io::Result<()> {
        let mut b = self.buffers.borrow_mut();
        let started = Instant::now();
        std::hint::black_box(Self::compute(&mut b));
        let computed = Instant::now();
        std::hint::black_box(self.socket(&mut b)?);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        into.compute_ms.push(ms(computed - started));
        into.socket_ms.push(ms(computed.elapsed()));
        Ok(())
    }

    fn compute(b: &mut Buffers) -> usize {
        let Buffers { numbers, text, .. } = b;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        numbers.clear();
        numbers.extend((0..NUMBERS).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        numbers.sort_unstable();
        text.clear();
        for n in &numbers[..FORMATTED] {
            let _ = write!(text, "{n:x},");
        }
        text.len()
    }

    fn socket(&self, b: &mut Buffers) -> std::io::Result<usize> {
        let reply = &mut b.reply;
        let mut conn = TcpStream::connect(self.addr)?;
        conn.set_nodelay(true)?;
        conn.write_all(b"GET")?;
        reply.clear();
        conn.read_to_end(reply)?;
        if reply.len() != REPLY_BYTES {
            return Err(std::io::Error::other("short calibration reply"));
        }
        Ok(reply.len())
    }

    /// Stops the responder and waits for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(responder) = self.responder.take() {
            if let Ok(mut conn) = TcpStream::connect(self.addr) {
                let _ = conn.write_all(b"stop");
            }
            let _ = responder.join();
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Kernel times of one pass, in ms, by part.
#[derive(Debug, Default)]
pub struct Samples {
    /// Sorting and formatting.
    pub compute_ms: Vec<f64>,
    /// The loopback read.
    pub socket_ms: Vec<f64>,
}

impl Samples {
    /// Whole-kernel times.
    pub fn total_ms(&self) -> Vec<f64> {
        self.compute_ms.iter().zip(&self.socket_ms).map(|(c, s)| c + s).collect()
    }

    /// The factor that brings times measured during this pass to the
    /// kernel's nominal speed.
    pub fn scale(&self) -> f64 {
        let m = median(&self.total_ms());
        if m > 0.0 {
            NOMINAL_MS / m
        } else {
            1.0
        }
    }
}
