//! The benchmark's TCP client: one connection, line-delimited JSON frames,
//! with pipelined blocks.
//!
//! A *block* writes all its request lines in one `write_all` and then reads
//! one response line per request.  The server answers a connection's frames
//! in order, so per-request time is block time ÷ block size without the
//! scheduler wake-up that dominates an unpipelined ping-pong.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a read may stall before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends `block` (request lines, each already ending in `\n`,
    /// concatenated) holding `requests` frames and reads that many response
    /// lines into `responses` (cleared first).  Parsing and checking the
    /// responses is the caller's business, after the clock has stopped.
    pub fn block(
        &mut self,
        block: &str,
        requests: usize,
        responses: &mut Vec<String>,
    ) -> io::Result<()> {
        responses.clear();
        self.writer.write_all(block.as_bytes())?;
        for _ in 0..requests {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            responses.push(line);
        }
        Ok(())
    }

    /// One request, one response.
    pub fn roundtrip(&mut self, frame: &str) -> io::Result<String> {
        let mut responses = Vec::with_capacity(1);
        self.block(frame, 1, &mut responses)?;
        Ok(responses.pop().expect("one response per request"))
    }
}

/// Renders a request frame (with trailing newline) from JSON fields.
pub fn frame(fields: serde_json::Value) -> String {
    let mut line = serde_json::to_string(&fields).expect("shim rendering is infallible");
    line.push('\n');
    line
}
