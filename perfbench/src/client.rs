//! The load generator: one process, at most two threads, one TCP
//! connection per thread, `TCP_NODELAY` on every socket.
//!
//! The open loop sends on a fixed schedule and reads responses as they
//! arrive, interleaved with the sends on the same thread (a poll wakes
//! it for whichever comes first), so a response is never left waiting
//! behind a pacing sleep. The closed loop keeps one request outstanding
//! per connection: each controller waits for its answer before sending
//! the next request, as a real re-allocation controller must.

use spg_serve::reactor::{poll_fds, PollFd, POLLIN, POLLOUT};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Connections (and threads) the generator uses.
pub const CONNECTIONS: usize = 2;

/// How long the open loop waits for stragglers after its last send;
/// a request unanswered by then counts as failed (`no-response`).
pub const DRAIN: Duration = Duration::from_secs(2);

/// One request of an open-loop phase, as the generator saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub due: Instant,
    pub sent: Instant,
    /// When its response line was read, and the line.
    pub reply: Option<(Instant, String)>,
}

/// Connect with `TCP_NODELAY` set.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// How a connection paces its sends.
#[derive(Clone, Copy)]
enum Pace<'a> {
    /// Send request `i` when `due(i)` comes (the open loop).
    Schedule(&'a (dyn Fn(usize) -> Instant + Sync)),
    /// Keep `window` requests outstanding until `until` (saturation).
    Window { window: usize, until: Instant },
}

/// Send `count` requests at `rate` per second, spread round-robin over
/// [`CONNECTIONS`] connections, and collect every response. `line(i)`
/// renders request `i`, whose id must be `id(i)`.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    count: usize,
    line: &(dyn Fn(usize) -> String + Sync),
    id: &(dyn Fn(usize) -> String + Sync),
) -> Result<Vec<(usize, Record)>, String> {
    assert!(rate > 0.0);
    // A short lead lets both connections start before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let records = each_connection(addr, count, Pace::Schedule(&due), line, id)?;
    debug_assert!(records.iter().enumerate().all(|(k, (i, _))| k == *i));
    Ok(records)
}

/// Keep `window` requests outstanding on each of the [`CONNECTIONS`]
/// connections for `secs` seconds, sending the next request as soon as
/// an answer comes back, and collect every response. A record's `due`
/// is its send time, so its latency is the round trip. The connections
/// send different numbers of requests, so the indices have gaps.
pub fn saturate(
    addr: SocketAddr,
    window: usize,
    secs: f64,
    line: &(dyn Fn(usize) -> String + Sync),
    id: &(dyn Fn(usize) -> String + Sync),
) -> Result<Vec<(usize, Record)>, String> {
    assert!(window > 0);
    let until = Instant::now() + Duration::from_secs_f64(secs);
    each_connection(addr, usize::MAX, Pace::Window { window, until }, line, id)
}

/// Run requests `c, c + CONNECTIONS, ...` (below `count`) on
/// connection `c`, one thread each; (index, record) in index order.
fn each_connection(
    addr: SocketAddr,
    count: usize,
    pace: Pace,
    line: &(dyn Fn(usize) -> String + Sync),
    id: &(dyn Fn(usize) -> String + Sync),
) -> Result<Vec<(usize, Record)>, String> {
    let run = |c: usize| -> Result<Vec<(usize, Record)>, String> {
        let stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mine = (count - c).div_ceil(CONNECTIONS);
        drive(stream, |k| c + k * CONNECTIONS, mine, pace, line, id)
    };
    let (first, second) = std::thread::scope(|s| {
        let other = s.spawn(|| run(1));
        let first = run(0);
        let second = other
            .join()
            .unwrap_or_else(|_| Err("generator thread panicked".to_string()));
        (first, second)
    });
    let mut records = first?;
    records.extend(second?);
    records.sort_by_key(|(i, _)| *i);
    Ok(records)
}

/// Send requests `index(0..mine)` on one connection as `pace` allows,
/// reading responses on the same poll loop as the sends.
fn drive(
    mut stream: TcpStream,
    index: impl Fn(usize) -> usize,
    mine: usize,
    pace: Pace,
    line: &(dyn Fn(usize) -> String + Sync),
    id: &(dyn Fn(usize) -> String + Sync),
) -> Result<Vec<(usize, Record)>, String> {
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let fd = stream.as_raw_fd();
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut sent: Vec<(usize, Record)> = Vec::new();
    let mut replies: Vec<(Instant, String)> = Vec::new();
    let mut eof = false;
    // The last send time the pace allows; stragglers get DRAIN after it.
    let last_send = match pace {
        Pace::Schedule(due) => (mine > 0).then(|| due(index(mine - 1))),
        Pace::Window { until, .. } => Some(until),
    }
    .unwrap_or_else(Instant::now);
    loop {
        let now = Instant::now();
        // Read first: an answer frees a window slot for the sends below.
        while !eof {
            match stream.read(&mut chunk) {
                Ok(0) => eof = true,
                Ok(n) => {
                    let at = Instant::now();
                    let scanned = inbuf.len();
                    inbuf.extend_from_slice(&chunk[..n]);
                    let mut begin = 0;
                    for end in scanned..inbuf.len() {
                        if inbuf[end] == b'\n' {
                            let text = String::from_utf8_lossy(&inbuf[begin..end]).into_owned();
                            replies.push((at, text));
                            begin = end + 1;
                        }
                    }
                    inbuf.drain(..begin);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        while sent.len() < mine {
            let i = index(sent.len());
            // A windowed request is due when it is sent.
            let due = match pace {
                Pace::Schedule(due) if due(i) <= now => Some(due(i)),
                Pace::Window { window, until }
                    if now < until && sent.len() - replies.len() < window =>
                {
                    None
                }
                _ => break,
            };
            out.extend_from_slice(line(i).as_bytes());
            out.push(b'\n');
            let at = Instant::now();
            sent.push((
                i,
                Record {
                    due: due.unwrap_or(at),
                    sent: at,
                    reply: None,
                },
            ));
        }
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        let now = Instant::now();
        let done_sending = out.is_empty()
            && match pace {
                Pace::Schedule(_) => sent.len() == mine,
                Pace::Window { until, .. } => now >= until,
            };
        if (done_sending && replies.len() >= sent.len())
            || eof
            || (done_sending && now > last_send + DRAIN)
        {
            break;
        }
        let wait = match pace {
            Pace::Schedule(due) if sent.len() < mine => {
                due(index(sent.len())).saturating_duration_since(now)
            }
            Pace::Window { until, .. } if now < until => until.saturating_duration_since(now),
            _ => (last_send + DRAIN).saturating_duration_since(now),
        };
        let events = POLLIN | if out.is_empty() { 0 } else { POLLOUT };
        let mut fds = [PollFd::new(fd, events)];
        poll_fds(&mut fds, Some(wait.min(Duration::from_millis(100))))
            .map_err(|e| format!("poll: {e}"))?;
    }
    // Responses carry the request id; match them after the phase so the
    // hot loop does nothing but send, read and timestamp.
    let slot: std::collections::HashMap<String, usize> = sent
        .iter()
        .enumerate()
        .map(|(k, (i, _))| (id(*i), k))
        .collect();
    let mut stray = Vec::new();
    for (at, text) in replies {
        match reply_id(&text).and_then(|rid| slot.get(rid)) {
            Some(&k) if sent[k].1.reply.is_none() => sent[k].1.reply = Some((at, text)),
            _ => stray.push(text),
        }
    }
    if let Some(text) = stray.first() {
        return Err(format!(
            "{} response(s) match no outstanding request id, first: {}",
            stray.len(),
            truncate(text)
        ));
    }
    Ok(sent)
}

/// The `id` of a response line, read without a full parse.
pub fn reply_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(r#"{"id":""#)?;
    rest.find('"').map(|end| &rest[..end])
}

/// A short prefix of a line for error messages.
pub fn truncate(line: &str) -> &str {
    let mut end = line.len().min(160);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// A closed-loop client: one request outstanding at a time.
pub struct Controller {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Controller {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Controller {
            writer: stream,
            reader,
        })
    }

    /// Send one line and wait for its response; returns the response
    /// and the round-trip time.
    pub fn call(&mut self, line: &str) -> std::io::Result<(String, Duration)> {
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let rtt = t0.elapsed();
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok((reply, rtt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line-echo server on an OS-assigned port, for `connections`
    /// connections; every request line is its own response.
    fn echo_server(connections: usize) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().unwrap();
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { break };
                        if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn saturation_refills_the_window_as_answers_arrive() {
        let addr = echo_server(CONNECTIONS);
        let id = |i: usize| format!("s-{i}");
        let line = |i: usize| format!(r#"{{"id":"{}"}}"#, id(i));
        let records = saturate(addr, 2, 0.3, &line, &id).unwrap();
        // A window refilled only on a poll timeout manages a handful of
        // round trips in 0.3 s; refilled at once, thousands.
        assert!(records.len() > 200, "only {} requests", records.len());
        assert!(records.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, r) in &records {
            let (at, text) = r.reply.as_ref().expect("every request answered");
            assert_eq!(reply_id(text), Some(id(*i).as_str()));
            assert!(*at >= r.sent && r.due == r.sent);
        }
    }

    #[test]
    fn open_loop_sends_every_request_on_schedule() {
        let addr = echo_server(CONNECTIONS);
        let id = |i: usize| format!("o-{i}");
        let line = |i: usize| format!(r#"{{"id":"{}"}}"#, id(i));
        let records = open_loop(addr, 2000.0, 200, &line, &id).unwrap();
        assert_eq!(records.len(), 200);
        for (k, (i, r)) in records.iter().enumerate() {
            assert_eq!(k, *i);
            assert!(r.reply.is_some() && r.sent >= r.due);
        }
    }

    #[test]
    fn reply_id_reads_the_leading_id() {
        assert_eq!(reply_id(r#"{"id":"n-12","placement":[]}"#), Some("n-12"));
        assert_eq!(reply_id(r#"{"id":null,"error":"bad-request"}"#), None);
        assert_eq!(truncate("abc"), "abc");
    }
}
