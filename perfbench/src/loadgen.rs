//! Open-loop request generation.
//!
//! Requests are due on a Poisson schedule fixed before the run starts.
//! A generator sleeps until each request is due, sends it, and waits for
//! its reply before the next one (the protocol answers in order on one
//! connection). Latency counts from the due time, not the send time, so
//! a stall delays every request that fell due during it and each of
//! them carries the wait. How late the generator itself sent a request
//! that it was free to send on time is reported separately: a run whose
//! generator falls behind its own schedule measures the generator, not
//! the server.

use std::time::{Duration, Instant};

use rtbh_rng::Rng;

/// Due times (seconds from the phase start) of a Poisson arrival process
/// at `rate` per second over `duration` seconds.
pub fn poisson_schedule<R: Rng>(rng: &mut R, rate: f64, duration: f64) -> Vec<f64> {
    let mut dues = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return dues;
        }
        dues.push(t);
    }
}

/// One request's timeline, in seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the request was due.
    pub due: f64,
    /// When it was sent.
    pub sent: f64,
    /// When its reply was complete.
    pub done: f64,
}

impl Timing {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// The generator sleeps until this long before a request is due and
/// spins the rest of the way: a plain sleep overshoots by tens of
/// microseconds, which would count as latency.
const SPIN: f64 = 100e-6;

/// Sends request `i` at `dues[i]` (or as soon as the previous reply is
/// in, when that is later) through `send`, which returns once the reply
/// is complete. Returns one [`Timing`] per request, in schedule order.
pub fn run_open_loop(start: Instant, dues: &[f64], mut send: impl FnMut(usize)) -> Vec<Timing> {
    let mut out = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        let now = start.elapsed().as_secs_f64();
        if now < due - SPIN {
            std::thread::sleep(Duration::from_secs_f64(due - SPIN - now));
        }
        while start.elapsed().as_secs_f64() < due {
            std::hint::spin_loop();
        }
        let sent = start.elapsed().as_secs_f64();
        send(i);
        let done = start.elapsed().as_secs_f64();
        out.push(Timing { due, sent, done });
    }
    out
}

/// How late the generator itself sent each request, ms: the time from
/// when it could first send (the due time, or the previous reply when
/// that came later) to when it did.
pub fn generator_lateness_ms(timings: &[Timing]) -> Vec<f64> {
    let mut free_at = f64::NEG_INFINITY;
    timings
        .iter()
        .map(|t| {
            let late = (t.sent - t.due.max(free_at)).max(0.0) * 1e3;
            free_at = t.done;
            late
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;

    use rtbh::core::serve::{Client, Request, Response};
    use rtbh::net::frame;
    use rtbh_rng::ChaChaRng;

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_rate() {
        let a = poisson_schedule(&mut ChaChaRng::seed_from_u64(7), 1000.0, 4.0);
        let b = poisson_schedule(&mut ChaChaRng::seed_from_u64(7), 1000.0, 4.0);
        assert_eq!(a, b);
        assert!((3600..4400).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    /// A stub server that answers every frame at once except the
    /// `stall_at`-th, which it holds for `stall`.
    fn stub_server(
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let reply = Response::Ok(b"\"pong\"".to_vec()).encode();
            let mut served = 0;
            while let Ok(Some(_)) = frame::read_frame(&mut stream, 1024) {
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                frame::write_frame(&mut stream, &reply).unwrap();
                stream.flush().unwrap();
                served += 1;
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_the_due_time_so_a_stall_reaches_later_requests() {
        let stall = Duration::from_millis(150);
        let (addr, server) = stub_server(5, stall);
        let mut client = Client::connect(addr).unwrap();
        // One request every 10 ms: requests 6..=19 fall due during the stall.
        let dues: Vec<f64> = (0..40).map(|i| 0.02 + i as f64 * 0.01).collect();
        let start = Instant::now();
        let timings = run_open_loop(start, &dues, |_| {
            assert!(matches!(
                client.request(&Request::Ping),
                Ok(Response::Ok(_))
            ));
        });
        drop(client);
        server.join().unwrap();

        let stall_end = timings[5].done;
        assert!(timings[5].latency_ms() >= 150.0);
        for t in &timings[6..] {
            if t.due < stall_end {
                // Sent only after the stall, so its wait from the due
                // time includes what was left of the stall.
                assert!(t.sent >= stall_end);
                assert!(
                    t.latency_ms() >= (stall_end - t.due) * 1e3,
                    "latency {} ms misses the stall",
                    t.latency_ms()
                );
            }
        }
        let during: Vec<_> = timings[6..].iter().filter(|t| t.due < stall_end).collect();
        assert!(
            during.len() >= 12,
            "{} requests fell due in the stall",
            during.len()
        );
        // Latency measured from the send time would hide the stall.
        assert!(during.iter().all(|t| (t.done - t.sent) * 1e3 < 50.0));
        // The stall is the server's, not the generator's.
        let own = generator_lateness_ms(&timings);
        assert!(
            own.iter().all(|&ms| ms < 20.0),
            "generator lateness {own:?}"
        );
    }
}
