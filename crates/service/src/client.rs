//! A small blocking client for the daemon's NDJSON protocol, with
//! per-request timeouts and bounded-exponential-backoff connect.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use crate::protocol::{decode_line, encode_line, JobSpec, Request, Response};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `tcp:HOST:PORT` — a loopback TCP address.
    Tcp(String),
    /// `unix:PATH` — a Unix-domain socket.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:ADDR` / `unix:PATH`.
    ///
    /// # Errors
    ///
    /// A description of the expected syntax.
    pub fn parse(text: &str) -> Result<Endpoint, String> {
        if let Some(addr) = text.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(addr.to_owned()))
        } else if let Some(path) = text.strip_prefix("unix:") {
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "endpoint must be tcp:HOST:PORT or unix:PATH, got {text:?}"
            ))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// A connected protocol client. One request in flight at a time.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<Stream>,
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Stream {
    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        let text = format!("{line}\n");
        match self {
            Stream::Tcp(s) => s.write_all(text.as_bytes()),
            Stream::Unix(s) => s.write_all(text.as_bytes()),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_timeouts(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
            Stream::Unix(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
        }
    }
}

impl Client {
    /// Connects with bounded exponential backoff: `attempts` tries,
    /// sleeping `base_delay * 2^k` (capped at one second) between
    /// failures. Every request on the returned client uses `timeout`
    /// for both write and read.
    ///
    /// # Errors
    ///
    /// The last connect failure after the attempt budget is spent.
    pub fn connect(
        endpoint: &Endpoint,
        timeout: Duration,
        attempts: u32,
        base_delay: Duration,
    ) -> std::io::Result<Client> {
        let mut last_err =
            std::io::Error::new(std::io::ErrorKind::NotConnected, "no connect attempts made");
        for k in 0..attempts.max(1) {
            if k > 0 {
                let backoff = base_delay
                    .saturating_mul(2u32.saturating_pow(k - 1))
                    .min(Duration::from_secs(1));
                std::thread::sleep(backoff);
            }
            let connected = match endpoint {
                Endpoint::Tcp(addr) => TcpStream::connect(addr).and_then(|s| {
                    s.set_nodelay(true)?;
                    Ok(Stream::Tcp(s))
                }),
                Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            };
            match connected {
                Ok(stream) => {
                    stream.set_timeouts(timeout)?;
                    return Ok(Client {
                        reader: BufReader::new(stream),
                    });
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Sends one request and reads its response line.
    ///
    /// # Errors
    ///
    /// I/O failure or timeout (`WouldBlock`/`TimedOut` kinds), or
    /// `InvalidData` when the response line does not parse. After an
    /// error the connection state is unknown — reconnect.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        self.reader
            .get_mut()
            .try_clone()?
            .write_line(&encode_line(request))?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        decode_line(&line).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Submits one job.
    ///
    /// # Errors
    ///
    /// As [`Self::request`].
    pub fn submit(&mut self, spec: JobSpec) -> std::io::Result<Response> {
        self.request(&Request::Submit { spec })
    }

    /// Fetches daemon status.
    ///
    /// # Errors
    ///
    /// As [`Self::request`].
    pub fn status(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Status)
    }

    /// Requests graceful shutdown.
    ///
    /// # Errors
    ///
    /// As [`Self::request`].
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse_and_display() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7444").unwrap(),
            Endpoint::Tcp("127.0.0.1:7444".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/e.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/e.sock"))
        );
        assert!(Endpoint::parse("http://nope").is_err());
        assert_eq!(
            Endpoint::parse("tcp:1.2.3.4:5").unwrap().to_string(),
            "tcp:1.2.3.4:5"
        );
    }

    #[test]
    fn connect_backoff_is_bounded() {
        let start = std::time::Instant::now();
        let missing = Endpoint::Unix(PathBuf::from("/nonexistent/ecosched.sock"));
        let err = Client::connect(
            &missing,
            Duration::from_millis(100),
            3,
            Duration::from_millis(5),
        )
        .unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_ne!(err.kind(), std::io::ErrorKind::Other);
    }
}
