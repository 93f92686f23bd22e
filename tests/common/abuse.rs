//! A scriptable raw-socket gpmld client for protocol-abuse tests.
//!
//! [`crate::common`]'s generators feed the server well-formed traffic;
//! this module feeds it everything else: partial frames, byte-at-a-time
//! writes, oversized length prefixes, mid-frame disconnects, and
//! receivers that never read. Every primitive is deterministic — the
//! only clock involved is the explicit deadline each test passes in —
//! so `server_stress.rs` can assert exact outcomes (a typed error, a
//! clean close, a timeout) instead of sleeping and hoping.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Length-prefixes a payload exactly as `protocol::write_frame` does —
/// independently reimplemented so these tests would catch the framing
/// layer itself drifting.
pub fn frame_bytes(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// A raw TCP connection to a gpmld server, with misbehavior primitives.
pub struct AbuseClient {
    stream: TcpStream,
}

impl AbuseClient {
    pub fn connect(addr: SocketAddr) -> io::Result<AbuseClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(AbuseClient { stream })
    }

    /// Sends a complete well-formed frame.
    pub fn send_frame(&mut self, payload: &str) -> io::Result<()> {
        self.send_raw(&frame_bytes(payload))
    }

    /// Sends arbitrary bytes — any prefix of a frame, garbage, anything.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Sends a well-formed frame one byte at a time with `pause` between
    /// bytes — the slow-loris shape. Stops early (without error) if the
    /// server closes the connection mid-dribble, which is exactly what
    /// an idle-timeout test expects it to do.
    pub fn dribble_frame(&mut self, payload: &str, pause: Duration) -> io::Result<()> {
        for byte in frame_bytes(payload) {
            if self.stream.write_all(&[byte]).is_err() {
                return Ok(());
            }
            let _ = self.stream.flush();
            std::thread::sleep(pause);
        }
        Ok(())
    }

    /// Sends just a length prefix announcing a `len`-byte payload that
    /// never arrives (pass something over `MAX_FRAME` to probe the
    /// oversized-frame guard).
    pub fn send_len_prefix(&mut self, len: u32) -> io::Result<()> {
        self.send_raw(&len.to_be_bytes())
    }

    /// Half-closes the write side, so the server sees EOF while this end
    /// can still read whatever the server had in flight.
    pub fn shutdown_write(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    /// Reads one frame, waiting at most `deadline`. `Ok(None)` is a
    /// clean server-side close; `Err(TimedOut | WouldBlock)` means the
    /// server sent nothing in time.
    pub fn recv_frame(&mut self, deadline: Duration) -> io::Result<Option<String>> {
        self.stream.set_read_timeout(Some(deadline))?;
        let mut len = [0u8; 4];
        if !read_exact_or_eof(&mut self.stream, &mut len)? {
            return Ok(None);
        }
        let len = u32::from_be_bytes(len) as usize;
        let mut payload = vec![0u8; len];
        if !read_exact_or_eof(&mut self.stream, &mut payload)? {
            return Ok(None);
        }
        String::from_utf8(payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Whether the server has sent anything not yet read, without
    /// waiting for it.
    pub fn has_pending(&mut self) -> io::Result<bool> {
        self.stream.set_nonblocking(true)?;
        let peeked = self.stream.peek(&mut [0u8; 1]);
        self.stream.set_nonblocking(false)?;
        match peeked {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// True once the server closes this connection within `deadline`.
    /// Any payload the server flushes first (say, a goodbye error frame)
    /// is read through and discarded on the way to EOF.
    pub fn wait_for_close(&mut self, deadline: Duration) -> bool {
        if self.stream.set_read_timeout(Some(deadline)).is_err() {
            return false;
        }
        let mut sink = [0u8; 4096];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => return true,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

/// `read_exact`, except a clean EOF before the *first* byte is `Ok(false)`
/// rather than an error.
fn read_exact_or_eof(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "mid-frame EOF",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}
