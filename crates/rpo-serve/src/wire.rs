//! Wire frontends: newline-delimited JSON over any `BufRead`/`Write` pair
//! (stdin/stdout) and over TCP.

use crate::proto::{ResponseStatus, ServeRequest, ServeResponse};
use crate::service::SolverService;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Longest request line [`serve_lines`] accepts, in bytes, not counting
/// its newline. A longer line gets one `invalid` response and is discarded
/// as it streams past; it is never buffered whole.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves one JSON-lines connection: reads a request per line from
/// `reader`, writes one response line per request to `writer` (responses
/// are correlated by `id`, not by order — a cache hit overtakes an earlier
/// queued solve). Returns when the reader hits EOF; queued work submitted
/// through this call may still be settling when it returns, so callers own
/// the service lifecycle (drain via [`SolverService::shutdown`]).
///
/// Unparseable lines — malformed JSON, bytes that are not UTF-8, or lines
/// longer than [`MAX_LINE_BYTES`] — get a [`ResponseStatus::Invalid`]
/// response with id 0, and the next line is served as usual; blank lines
/// are ignored. Only an I/O error of the reader ends the stream early.
pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
    service: &SolverService,
    mut reader: R,
    writer: W,
) -> std::io::Result<()> {
    let writer = Arc::new(Mutex::new(writer));
    let invalid = |error: String| {
        write_response(
            &writer,
            &ServeResponse::rejection(0, ResponseStatus::Invalid, error),
        );
    };
    let mut bytes = Vec::new();
    while let Some(fits) = read_line_bounded(&mut reader, &mut bytes)? {
        if !fits {
            invalid(format!(
                "request line exceeds the {MAX_LINE_BYTES}-byte limit"
            ));
            continue;
        }
        let Ok(line) = std::str::from_utf8(&bytes) else {
            invalid("request line is not valid UTF-8".to_string());
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<ServeRequest>(line) {
            Ok(request) => {
                let sink = Arc::clone(&writer);
                service.submit_with(
                    request,
                    Box::new(move |response| {
                        write_response(&sink, &response);
                    }),
                );
            }
            Err(error) => invalid(format!("unparseable request: {error}")),
        }
    }
    Ok(())
}

/// Reads the next line of `reader` into `line`, without its `\n` or
/// `\r\n` ending. Returns `None` at end of input, `Some(true)` for a line
/// of at most [`MAX_LINE_BYTES`] bytes, and `Some(false)` for a longer one,
/// whose bytes are skipped up to and including its newline (`line` is left
/// empty then).
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<bool>> {
    line.clear();
    // One byte past the cap tells a line over it from a line exactly at it.
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_LINE_BYTES {
        line.clear();
        reader.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// Writes one response as a single newline-terminated line in **one**
/// `write_all` call: on an unbuffered socket, a separate write for the
/// trailing newline would go out as its own segment, and Nagle's algorithm
/// would hold it until the peer acknowledges the first — a delayed-ACK
/// stall of tens of milliseconds per response.
fn write_response<W: Write>(writer: &Mutex<W>, response: &ServeResponse) {
    let mut line = serde_json::to_string(response)
        .expect("responses contain no non-finite floats and always serialize");
    line.push('\n');
    let mut writer = writer.lock().expect("response writer poisoned");
    // A dead peer is not an error worth crashing the service over; the
    // submission loop notices EOF on its own side.
    let _ = writer.write_all(line.as_bytes());
    let _ = writer.flush();
}

/// A TCP frontend: accepts connections and runs [`serve_lines`] on each in
/// its own thread, against one shared [`SolverService`].
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting. The service must outlive the server; it is shared via
    /// `Arc` so connection threads can submit after `spawn` returns.
    pub fn spawn(service: Arc<SolverService>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_loop = std::thread::spawn(move || {
            for connection in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = connection else { continue };
                // Responses are whole lines written at once; send each
                // without waiting to coalesce it with later output.
                let _ = stream.set_nodelay(true);
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(read_half) => BufReader::new(read_half),
                        Err(_) => return,
                    };
                    let _ = serve_lines(&service, reader, stream);
                });
            }
        });
        Ok(TcpServer {
            addr,
            stop,
            accept_loop: Some(accept_loop),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop. Existing
    /// connections keep being served until their peers hang up; drain the
    /// underlying service afterwards for a full shutdown.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept_loop) = self.accept_loop.take() {
            let _ = accept_loop.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use rpo_portfolio::PortfolioEngine;

    /// A writer that records every `write` call it receives.
    #[derive(Clone, Default)]
    struct RecordingWriter(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_leaves_in_exactly_one_write_ending_in_a_newline() {
        let service = SolverService::start(
            Arc::new(PortfolioEngine::default().with_threads(1)),
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        );
        let request = ServeRequest {
            id: 7,
            tenant: 0,
            deadline_ms: None,
            chain: rpo_model::TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0)]).unwrap(),
            platform: rpo_model::Platform::homogeneous(3, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap(),
            period_bound: None,
            latency_bound: None,
        };
        let input = format!("not json\n{}\n", serde_json::to_string(&request).unwrap());
        let writer = RecordingWriter::default();
        serve_lines(&service, input.as_bytes(), writer.clone()).unwrap();
        service.shutdown();

        let writes = writer.0.lock().unwrap().clone();
        assert_eq!(writes.len(), 2, "one write per response");
        for write in &writes {
            assert_eq!(write.last(), Some(&b'\n'));
            assert_eq!(write.iter().filter(|&&b| b == b'\n').count(), 1);
            let line = std::str::from_utf8(write).unwrap();
            serde_json::from_str::<ServeResponse>(line.trim_end()).unwrap();
        }
    }
}
