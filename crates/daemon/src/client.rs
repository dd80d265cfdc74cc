//! Blocking client for the `mhd serve` socket protocol.
//!
//! One [`Client`] is one connection: attach a tenant with
//! [`open`](Client::open), then run sessions
//! (`begin` → `send_file`… → `commit`/`abort`) and reads (`ls`,
//! `restore`, `have`). The wire format is documented in
//! [`crate::protocol`].

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::error::{DaemonError, DaemonResult};
use crate::protocol::Request;

/// The most [`Client::restore`] reserves before a reply's bytes arrive.
const RESTORE_RESERVE: u64 = 16 << 20;

/// What the server reported for a committed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitSummary {
    /// Files committed.
    pub files: u64,
    /// Raw input bytes sent.
    pub input_bytes: u64,
    /// Bytes the shared store actually grew by.
    pub grown_bytes: u64,
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to a daemon's Unix socket.
    pub fn connect(socket: &Path) -> DaemonResult<Client> {
        let stream = UnixStream::connect(socket)?;
        Ok(Client { reader: BufReader::new(stream) })
    }

    fn send_line(&mut self, request: &Request) -> DaemonResult<()> {
        let stream = self.reader.get_mut();
        stream.write_all(request.encode().as_bytes())?;
        stream.write_all(b"\n")?;
        Ok(())
    }

    /// Reads one reply line; `OK …` yields the rest, `ERR …` becomes
    /// [`DaemonError::Remote`].
    fn read_reply(&mut self) -> DaemonResult<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(DaemonError::Protocol("server closed the connection".into()));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(rest) = line.strip_prefix("OK") {
            Ok(rest.trim_start().to_string())
        } else if let Some(msg) = line.strip_prefix("ERR") {
            Err(DaemonError::Remote(msg.trim_start().to_string()))
        } else {
            Err(DaemonError::Protocol(format!("unparseable reply {line:?}")))
        }
    }

    fn round_trip(&mut self, request: &Request) -> DaemonResult<String> {
        self.send_line(request)?;
        self.read_reply()
    }

    /// Attaches this connection to a tenant namespace.
    pub fn open(&mut self, tenant: &str) -> DaemonResult<()> {
        self.round_trip(&Request::Open { tenant: tenant.to_string() }).map(|_| ())
    }

    /// Starts a write session for a new backup stream.
    pub fn begin(&mut self, label: &str) -> DaemonResult<()> {
        self.round_trip(&Request::Begin { label: label.to_string() }).map(|_| ())
    }

    /// Stages one file in the open session.
    pub fn send_file(&mut self, path: &str, data: &[u8]) -> DaemonResult<()> {
        self.send_line(&Request::File { len: data.len() as u64, path: path.to_string() })?;
        self.reader.get_mut().write_all(data)?;
        self.read_reply().map(|_| ())
    }

    /// Commits the open session.
    pub fn commit(&mut self) -> DaemonResult<CommitSummary> {
        let reply = self.round_trip(&Request::Commit)?;
        let mut fields = reply.split_ascii_whitespace().map(|f| f.parse::<u64>());
        match (fields.next(), fields.next(), fields.next()) {
            (Some(Ok(files)), Some(Ok(input_bytes)), Some(Ok(grown_bytes))) => {
                Ok(CommitSummary { files, input_bytes, grown_bytes })
            }
            _ => Err(DaemonError::Protocol(format!("bad COMMIT reply {reply:?}"))),
        }
    }

    /// Aborts the open session.
    pub fn abort(&mut self) -> DaemonResult<()> {
        self.round_trip(&Request::Abort).map(|_| ())
    }

    /// Lists the tenant's recipes.
    pub fn ls(&mut self) -> DaemonResult<Vec<String>> {
        let reply = self.round_trip(&Request::Ls)?;
        Ok(reply.split_ascii_whitespace().map(str::to_string).collect())
    }

    /// Restores one recipe (`label/path`) to bytes, read from the socket
    /// straight into the returned buffer. The length the server announces
    /// is not trusted: at most 16 MiB is reserved up front, the buffer
    /// grows as bytes arrive, and a reply that does not carry exactly
    /// that many bytes is a protocol error.
    pub fn restore(&mut self, name: &str) -> DaemonResult<Vec<u8>> {
        let reply = self.round_trip(&Request::Restore { name: name.to_string() })?;
        let len: u64 = reply
            .parse()
            .map_err(|_| DaemonError::Protocol(format!("bad RESTORE length {reply:?}")))?;
        let mut data = Vec::with_capacity(len.min(RESTORE_RESERVE) as usize);
        let got = (&mut self.reader).take(len).read_to_end(&mut data)?;
        if got as u64 != len {
            return Err(DaemonError::Protocol(format!(
                "RESTORE reply ended after {got} of {len} bytes"
            )));
        }
        Ok(data)
    }

    /// Probes which of `hashes` (hex) the store already has.
    pub fn have(&mut self, hashes: &[String]) -> DaemonResult<Vec<bool>> {
        let reply = self.round_trip(&Request::Have { hashes: hashes.to_vec() })?;
        Ok(reply.chars().map(|c| c == '1').collect())
    }

    /// One-line JSON statistics from the server.
    pub fn stats(&mut self) -> DaemonResult<String> {
        self.round_trip(&Request::Stats)
    }

    /// Runs protected garbage collection; returns the server's summary
    /// line (`deleted protected bytes_freed`).
    pub fn gc(&mut self) -> DaemonResult<String> {
        self.round_trip(&Request::Gc)
    }

    /// Runs the integrity checker; `Ok` means healthy.
    pub fn fsck(&mut self) -> DaemonResult<String> {
        self.round_trip(&Request::Fsck)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> DaemonResult<()> {
        self.round_trip(&Request::Ping).map(|_| ())
    }

    /// Asks the daemon to stop (drains handlers, persists state).
    pub fn shutdown(&mut self) -> DaemonResult<()> {
        self.round_trip(&Request::Shutdown).map(|_| ())
    }

    /// Backs up a directory as one session: files are read in sorted
    /// order, staged under their `/`-separated relative paths, and
    /// committed. The session label is `label`; a failure aborts the
    /// session before returning.
    pub fn backup_dir(&mut self, dir: &Path, label: &str) -> DaemonResult<CommitSummary> {
        let paths = mhd_workload::trace::walk_dir(dir)?;
        if paths.is_empty() {
            return Err(DaemonError::Protocol(format!("{} contains no files", dir.display())));
        }
        self.begin(label)?;
        for (path, rel) in paths {
            let data = match std::fs::read(&path) {
                Ok(data) => data,
                Err(e) => {
                    let _ = self.abort();
                    return Err(e.into());
                }
            };
            if let Err(e) = self.send_file(&rel, &data) {
                let _ = self.abort();
                return Err(e);
            }
        }
        self.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;
    use std::path::PathBuf;
    use std::thread::JoinHandle;

    /// A server that answers one `RESTORE` line with `reply` and hangs up.
    fn fake_server(tag: &str, reply: &'static [u8]) -> (PathBuf, JoinHandle<()>) {
        let dir = std::env::temp_dir().join(format!("mhd-client-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("mhd.sock");
        let listener = UnixListener::bind(&socket).unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("RESTORE "), "{line:?}");
            reader.get_mut().write_all(reply).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        });
        (socket, server)
    }

    #[test]
    fn restore_takes_exactly_the_announced_length_or_fails() {
        let (socket, server) = fake_server("exact", b"OK 3\nabc");
        assert_eq!(Client::connect(&socket).unwrap().restore("d/a").unwrap(), b"abc");
        server.join().unwrap();

        for (tag, reply, want) in [
            // A length no buffer could hold is an error, not an abort.
            ("huge", &b"OK 18446744073709551615\nabcde"[..], "after 5 of 18446744073709551615"),
            ("short", b"OK 10\nabc", "after 3 of 10"),
            ("none", b"OK 10\n", "after 0 of 10"),
            ("garbled", b"OK ten\n", "bad RESTORE length"),
        ] {
            let (socket, server) = fake_server(tag, reply);
            let err = Client::connect(&socket).unwrap().restore("d/a").unwrap_err();
            assert!(matches!(&err, DaemonError::Protocol(m) if m.contains(want)), "{tag}: {err}");
            server.join().unwrap();
        }
    }
}
