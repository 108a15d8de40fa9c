//! The load generator: one thread per keep-alive connection, each
//! replaying its own queue of pre-built requests.
//!
//! Open loop: every request has a due time on the phase clock. A
//! connection sends it at its due time, or as soon as the previous
//! request on that connection has answered if that is later, and its
//! latency is timed **from the due time**. A stalled reply therefore adds
//! its stall to every request queued behind it, so the generator cannot
//! hide a slow server by slowing down (no coordinated omission).
//!
//! Closed loop: a connection sends its next request the moment the
//! previous one answers, until the phase's time is up; latency is timed
//! from the send.

use std::time::{Duration, Instant};

use ds_serve::Client;

/// One request of a phase.
#[derive(Debug, Clone)]
pub struct Req {
    /// Connection (thread) that sends it; requests that must stay in
    /// order (one meter's pushes) share a connection.
    pub conn: usize,
    /// Due time, seconds after the phase start (open loop only).
    pub due: f64,
    pub path: &'static str,
    pub body: std::sync::Arc<str>,
}

/// What happened to one request. Times are nanoseconds on the phase
/// clock.
#[derive(Debug, Clone)]
pub struct Done {
    /// HTTP status; 0 when the exchange failed at the transport level.
    pub status: u16,
    pub reply: String,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// How late the generator itself sent the request: the send time
    /// minus the later of its due time and the previous answer on its
    /// connection.
    pub lateness_ns: u64,
}

impl Done {
    /// Latency in milliseconds, from the due time (equal to the send time
    /// in closed loop).
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Send at due times; stop sending `cap` seconds after the start.
    Open { cap: f64 },
    /// Send back to back until `until` seconds after the start.
    Closed { until: f64 },
}

/// Run one phase over `clients` (one per connection). Returns one entry
/// per request, `None` for requests never sent (closed loop ran out of
/// time, or the open-loop cap was hit).
pub fn run(addr: &str, clients: &mut [Client], reqs: &[Req], mode: Mode) -> Vec<Option<Done>> {
    let conns = clients.len();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for (i, r) in reqs.iter().enumerate() {
        queues[r.conn % conns].push(i);
    }
    // A short lead so every thread is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let per_conn: Vec<Vec<(usize, Done)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&queues)
            .map(|(client, queue)| {
                scope.spawn(move || drive(addr, client, reqs, queue, mode, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut out: Vec<Option<Done>> = vec![None; reqs.len()];
    for (i, done) in per_conn.into_iter().flatten() {
        out[i] = Some(done);
    }
    out
}

fn nanos_since(start: Instant) -> u64 {
    Instant::now().saturating_duration_since(start).as_nanos() as u64
}

fn drive(
    addr: &str,
    client: &mut Client,
    reqs: &[Req],
    queue: &[usize],
    mode: Mode,
    start: Instant,
) -> Vec<(usize, Done)> {
    let mut out = Vec::with_capacity(queue.len());
    let mut prev_done = 0u64;
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    for &i in queue {
        let req = &reqs[i];
        let due_ns = match mode {
            Mode::Open { cap } => {
                if nanos_since(start) as f64 / 1e9 > cap {
                    break;
                }
                let due = start + Duration::from_secs_f64(req.due);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                (req.due * 1e9) as u64
            }
            Mode::Closed { until } => {
                let now = nanos_since(start);
                if now as f64 / 1e9 >= until {
                    break;
                }
                now
            }
        };
        let sent_ns = nanos_since(start);
        let (status, reply) = match client.post(req.path, &req.body) {
            Ok(answer) => answer,
            Err(_) => {
                // Reconnect so one broken exchange does not fail the rest.
                if let Ok(fresh) = Client::connect(addr) {
                    *client = fresh;
                }
                (0, String::new())
            }
        };
        let done_ns = nanos_since(start);
        out.push((
            i,
            Done {
                status,
                reply,
                due_ns,
                sent_ns,
                done_ns,
                lateness_ns: sent_ns.saturating_sub(due_ns.max(prev_done)),
            },
        ));
        prev_done = done_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A one-connection server that answers at once, except that it
    /// stalls the third request for 200 ms.
    fn stalling_server() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut n = 0;
            while let Ok(ds_serve::http::ReadOutcome::Request(_)) =
                ds_serve::http::read_request(&mut reader, 1 << 20)
            {
                n += 1;
                if n == 3 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                ds_serve::http::write_response(&mut writer, 200, "{}", true).unwrap();
            }
        });
        addr
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let addr = stalling_server();
        let mut clients = vec![Client::connect(&addr).unwrap()];
        // Ten requests due every 10 ms; the third (due at 20 ms) stalls.
        let reqs: Vec<Req> = (0..10)
            .map(|i| Req {
                conn: 0,
                due: i as f64 * 0.010,
                path: "/x",
                body: "{}".into(),
            })
            .collect();
        let done = run(&addr, &mut clients, &reqs, Mode::Open { cap: 5.0 });
        let lat: Vec<f64> = done
            .iter()
            .map(|d| d.as_ref().unwrap().latency_ms())
            .collect();
        assert!(lat[0] < 100.0 && lat[1] < 100.0, "{lat:?}");
        assert!(lat[2] >= 200.0, "{lat:?}");
        // Request k (k > 2) was due (k - 2) * 10 ms after the stalled one
        // and could only be sent after it answered, so it waited at least
        // the rest of the stall.
        for (k, &l) in lat.iter().enumerate().skip(3) {
            let owed = 200.0 - (k - 2) as f64 * 10.0;
            assert!(l >= owed, "request {k}: {l} ms < {owed} ms owed; {lat:?}");
        }
        // The generator itself was not late: every delay was the server's.
        for d in done.iter().flatten() {
            assert!(d.lateness_ns < 50_000_000, "{}", d.lateness_ns);
        }
    }
}
