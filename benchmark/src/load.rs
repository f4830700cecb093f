//! Load generation against a running `HaServe`, through its public API.
//!
//! * **Open loop** — one dispatcher thread sends each operation at its
//!   scheduled instant (a seeded Poisson schedule) whether or not earlier
//!   ones were answered; one reaper thread collects the answers. Latency
//!   runs from the *scheduled* instant, so a stall in the generator or the
//!   service is charged to every request it delays. Writes (`insert`,
//!   `delete`) are synchronous calls and run on the dispatcher; their
//!   latency ends at the acknowledgement, which includes the WAL append.
//!   The reaper waits on tickets in send order, so an answer that arrives
//!   behind a slower one is timed when the slower one is.
//! * **Closed loop** — `clients` threads each send their next operation
//!   once the previous one is answered, for a fixed time budget.
//!
//! Either way the generator uses at most `nproc` threads of its own.
//! Every answer is kept, indexed by operation, for the correctness check
//! that runs after the timed region.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ha_bitcode::BinaryCode;
use ha_core::TupleId;
use ha_service::{HaServe, KnnTicket, SelectTicket, ServiceError};

/// One client operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Hamming-select at the workload's radius.
    Select(BinaryCode),
    /// kNN-select with the workload's `k`.
    Knn(BinaryCode),
    /// H-Insert of a fresh `(code, id)`.
    Insert(BinaryCode, TupleId),
    /// H-Delete of a live `(code, id)`.
    Delete(BinaryCode, TupleId),
}

/// Request class, for per-class latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Selects.
    Select = 0,
    /// kNN-selects.
    Knn = 1,
    /// Inserts and deletes.
    Write = 2,
}

impl Op {
    /// The request class of this operation.
    pub fn class(&self) -> Class {
        match self {
            Op::Select(_) => Class::Select,
            Op::Knn(_) => Class::Knn,
            Op::Insert(..) | Op::Delete(..) => Class::Write,
        }
    }
}

/// What the service answered.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// Select ids, ascending.
    Ids(Vec<TupleId>),
    /// kNN `(id, distance)` pairs.
    Near(Vec<(TupleId, u32)>),
    /// Insert acknowledged.
    Inserted,
    /// Delete acknowledged; whether the pair was live.
    Deleted(bool),
}

/// Query parameters shared by every operation of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Select radius.
    pub h: u32,
    /// kNN `k`.
    pub k: usize,
}

/// Failures by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    /// Refused at admission (queue full).
    pub rejected: u64,
    /// Shed at dequeue (deadline passed).
    pub shed: u64,
    /// Any other error.
    pub errored: u64,
}

impl Failures {
    /// All failed operations.
    pub fn total(&self) -> u64 {
        self.rejected + self.shed + self.errored
    }

    fn count(&mut self, e: &ServiceError) {
        match e {
            ServiceError::Overloaded { .. } => self.rejected += 1,
            ServiceError::DeadlineExceeded => self.shed += 1,
            _ => self.errored += 1,
        }
    }

    fn absorb(&mut self, o: Failures) {
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.errored += o.errored;
    }
}

/// One answered operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Request class.
    pub class: Class,
    /// Seconds from the start of the phase to the answer.
    pub done_s: f64,
    /// Latency in µs.
    pub latency_us: f64,
}

/// Everything one load phase observed.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Operations sent.
    pub attempted: u64,
    /// Failed operations by kind.
    pub failures: Failures,
    /// Every answered operation.
    pub samples: Vec<Sample>,
    /// How late each send was against its schedule, µs (open loop only).
    pub late_us: Vec<f64>,
    /// Answers by operation index.
    pub answers: Vec<(usize, Answer)>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Per-shard delta sizes sampled during the phase (when asked for).
    pub delta_samples: Vec<f64>,
}

impl LoadReport {
    /// `(done_s, latency_us)` of every answered operation of `class`, or of
    /// every class for `None`.
    pub fn timeline(&self, class: Option<Class>) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| (s.done_s, s.latency_us))
            .collect()
    }

    /// Latencies in µs of `class`, or of every class for `None`.
    pub fn latency_us(&self, class: Option<Class>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_us)
            .collect()
    }

    fn absorb(&mut self, other: LoadReport) {
        self.attempted += other.attempted;
        self.failures.absorb(other.failures);
        self.samples.extend(other.samples);
        self.late_us.extend(other.late_us);
        self.answers.extend(other.answers);
        self.delta_samples.extend(other.delta_samples);
    }
}

/// Seconds since `start` (0 while `start` is still ahead).
fn since(start: Instant) -> f64 {
    crate::host::secs(Instant::now().saturating_duration_since(start))
}

enum Pending {
    Select(SelectTicket),
    Knn(KnnTicket),
}

/// Runs a synchronous write; `Err` when the service refused it.
fn write(serve: &HaServe, op: &Op) -> Result<Answer, ServiceError> {
    match op {
        Op::Insert(code, id) => serve.insert(code.clone(), *id).map(|()| Answer::Inserted),
        Op::Delete(code, id) => serve.delete(code, *id).map(Answer::Deleted),
        Op::Select(code) => unreachable!("select {code} is not a write"),
        Op::Knn(code) => unreachable!("knn {code} is not a write"),
    }
}

/// Runs one operation and waits for its answer (closed loop).
fn call(serve: &HaServe, op: &Op, p: Params) -> Result<Answer, ServiceError> {
    match op {
        Op::Select(code) => serve.select(code, p.h).map(Answer::Ids),
        Op::Knn(code) => serve.knn(code, p.k).map(Answer::Near),
        Op::Insert(..) | Op::Delete(..) => write(serve, op),
    }
}

/// Open loop: sends `ops[i]` at `schedule[i]` seconds after the start.
/// With `sample_every` set, the dispatcher also samples every shard's
/// delta size at that period.
pub fn open_loop(
    serve: &HaServe,
    ops: &[Op],
    schedule: &[f64],
    p: Params,
    sample_every: Option<Duration>,
) -> LoadReport {
    assert_eq!(ops.len(), schedule.len(), "one send instant per operation");
    let (tx, rx) = mpsc::channel::<(usize, Instant, Pending)>();
    // A short lead so the first sends are not late by thread start-up.
    let start = Instant::now() + Duration::from_millis(5);
    let (dispatched, reaped) = std::thread::scope(|s| {
        let dispatcher = s.spawn(move || {
            let mut out = LoadReport::default();
            let mut next_sample = start;
            for (i, (op, &at)) in ops.iter().zip(schedule).enumerate() {
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if let Some(period) = sample_every {
                    if Instant::now() >= next_sample {
                        let m = serve.metrics();
                        out.delta_samples
                            .extend(m.per_shard.iter().map(|s| s.delta_ops as f64));
                        next_sample += period;
                    }
                }
                let sent = Instant::now();
                out.late_us
                    .push(crate::host::micros(sent.saturating_duration_since(due)));
                out.attempted += 1;
                let pending = match op {
                    Op::Select(code) => serve.submit_select(code, p.h).map(Pending::Select),
                    Op::Knn(code) => serve.submit_knn(code, p.k).map(Pending::Knn),
                    Op::Insert(..) | Op::Delete(..) => match write(serve, op) {
                        Ok(a) => {
                            out.samples.push(Sample {
                                class: Class::Write,
                                done_s: since(start),
                                latency_us: crate::host::micros(due.elapsed()),
                            });
                            out.answers.push((i, a));
                            continue;
                        }
                        Err(e) => Err(e),
                    },
                };
                match pending {
                    Ok(t) => {
                        if tx.send((i, due, t)).is_err() {
                            break;
                        }
                    }
                    Err(e) => out.failures.count(&e),
                }
            }
            drop(tx);
            out
        });
        let reaper = s.spawn(move || {
            let mut out = LoadReport::default();
            for (i, due, pending) in rx {
                let (class, answer) = match pending {
                    Pending::Select(t) => (Class::Select, t.wait().map(Answer::Ids)),
                    Pending::Knn(t) => (Class::Knn, t.wait().map(Answer::Near)),
                };
                let latency = crate::host::micros(due.elapsed());
                match answer {
                    Ok(a) => {
                        out.samples.push(Sample {
                            class,
                            done_s: since(start),
                            latency_us: latency,
                        });
                        out.answers.push((i, a));
                    }
                    Err(e) => out.failures.count(&e),
                }
            }
            out
        });
        (
            dispatcher.join().expect("dispatcher thread"),
            reaper.join().expect("reaper thread"),
        )
    });
    let mut out = dispatched;
    out.absorb(reaped);
    out.elapsed = start.elapsed();
    out
}

/// Closed loop: `clients` threads; client `c` runs operations
/// `c, c + clients, …` back to back until `budget` has passed or its
/// share of `ops` is used up.
pub fn closed_loop(
    serve: &HaServe,
    ops: &[Op],
    clients: usize,
    budget: Duration,
    p: Params,
) -> LoadReport {
    let start = Instant::now();
    let stop = start + budget;
    let parts: Vec<(LoadReport, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut out = LoadReport::default();
                    for i in (c..ops.len()).step_by(clients) {
                        if Instant::now() >= stop {
                            break;
                        }
                        let op = &ops[i];
                        let t = Instant::now();
                        out.attempted += 1;
                        match call(serve, op, p) {
                            Ok(a) => {
                                out.samples.push(Sample {
                                    class: op.class(),
                                    done_s: since(start),
                                    latency_us: crate::host::micros(t.elapsed()),
                                });
                                out.answers.push((i, a));
                            }
                            Err(e) => out.failures.count(&e),
                        }
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = LoadReport::default();
    let mut end = start;
    for (part, done) in parts {
        end = end.max(done);
        out.absorb(part);
    }
    out.elapsed = end - start;
    out
}
