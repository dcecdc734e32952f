//! The calibration kernel behind `bench.calib_us`: a fixed piece of work
//! that uses none of the program's code, so when it moves the machine
//! moved, not the program.
//!
//! The kernel is 400 round trips of 64 bytes over one loopback TCP
//! connection between the calling thread and an echo thread — system calls,
//! copies and thread switches, the work an invocation is made of. On the
//! shared calibration box it takes 2.8 ms or, for seconds to minutes at a
//! time, 4.4 ms, and a window beside a slow kernel completes 0.6–0.7 times
//! the operations of one beside a fast kernel; an arithmetic spin loop
//! moves by ±6 % only and says nothing.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Round trips per measurement.
const ROUND_TRIPS: usize = 400;
/// Bytes per message.
const MESSAGE: usize = 64;

/// A connected pair: this end and the thread echoing at the other.
pub struct Calibrator {
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Calibrator {
    /// Connect the pair. Call after the process is pinned, so the echo
    /// thread shares the CPU.
    pub fn start() -> std::io::Result<Calibrator> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let mut message = [0u8; MESSAGE];
            // Ends when this side closes the connection.
            while peer.read_exact(&mut message).is_ok() && peer.write_all(&message).is_ok() {}
        });
        Ok(Calibrator {
            stream,
            echo: Some(echo),
        })
    }

    /// Time one kernel.
    pub fn measure(&mut self) -> std::io::Result<Duration> {
        let mut message = [0u8; MESSAGE];
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.stream.write_all(&message)?;
            self.stream.read_exact(&mut message)?;
        }
        Ok(start.elapsed())
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // Errors here mean the echo thread is already gone.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_the_echo_thread_ends_with_it() {
        let mut calibrator = Calibrator::start().unwrap();
        assert!(calibrator.measure().unwrap() > Duration::ZERO);
        assert!(calibrator.measure().unwrap() > Duration::ZERO);
        drop(calibrator); // joins the echo thread; a hang fails the test
    }
}
