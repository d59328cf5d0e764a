//! Modelled connection pools, driven as lanes from one simulated thread.
//!
//! Each request is a non-sleeping state machine that says what it needs
//! next as a [`Step`]. [`drive_lanes`] keeps up to `K` of them in flight
//! without spawning a thread per connection; serial callers step the same
//! machines with [`step_serial`], so one lane replays serial calls exactly.

use std::time::Duration;

use crate::time::SimInstant;

/// What a request's state machine needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<T> {
    /// Step again after this much virtual time.
    Wait(Duration),
    /// The request finished with this outcome.
    Done(T),
}

impl<T> Step<T> {
    /// Maps the outcome of a finished step, leaving a wait as it is.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Step<U> {
        match self {
            Step::Wait(d) => Step::Wait(d),
            Step::Done(t) => Step::Done(f(t)),
        }
    }
}

/// Steps one request to completion on the calling simulated thread,
/// sleeping through each wait in place.
pub fn step_serial<T>(mut step: impl FnMut() -> Step<T>) -> T {
    loop {
        match step() {
            Step::Wait(d) => crate::sleep(d),
            Step::Done(t) => return t,
        }
    }
}

/// Runs every request of `queue` over up to `lanes` (at least one)
/// concurrent connections from the calling simulated thread, and returns
/// the outcomes in queue order. Idle lanes, in lane order, take the next
/// request from `queue` and step it at once; one whose first step is `Done`
/// frees its lane for the next. The caller sleeps until the earliest lane
/// event, ties going to the lowest lane.
pub fn drive_lanes<M, T>(
    queue: impl Iterator<Item = M>,
    lanes: usize,
    mut step: impl FnMut(&mut M) -> Step<T>,
) -> Vec<T> {
    struct Flight<M> {
        entry: usize,
        machine: M,
        due: SimInstant,
    }
    let (least, most) = queue.size_hint();
    let lanes = lanes.clamp(1, most.unwrap_or(usize::MAX).max(1));
    let mut flights: Vec<Option<Flight<M>>> = (0..lanes).map(|_| None).collect();
    // One slot per request taken, whatever the size hint said.
    let mut out: Vec<Option<T>> = Vec::with_capacity(least);
    let mut queue = queue.enumerate();
    loop {
        let now = crate::now();
        for lane in flights.iter_mut().filter(|l| l.is_none()) {
            for (entry, mut machine) in queue.by_ref() {
                match step(&mut machine) {
                    Step::Done(t) => out.push(Some(t)),
                    Step::Wait(d) => {
                        out.push(None);
                        let due = now + d;
                        *lane = Some(Flight {
                            entry,
                            machine,
                            due,
                        });
                        break;
                    }
                }
            }
        }
        // `min_by_key` keeps the first of equal keys: the lowest lane.
        let Some(slot) = flights
            .iter_mut()
            .filter(|f| f.is_some())
            .min_by_key(|f| f.as_ref().map(|f| f.due))
        else {
            break;
        };
        let Some(flight) = slot.as_mut() else { break };
        if flight.due > now {
            crate::sleep(flight.due.duration_since(now));
        }
        match step(&mut flight.machine) {
            Step::Wait(d) => flight.due = crate::now() + d,
            Step::Done(t) => {
                if let Some(done) = out.get_mut(flight.entry) {
                    *done = Some(t);
                }
                *slot = None;
            }
        }
    }
    debug_assert!(out.iter().all(Option::is_some), "a request never finished");
    out.into_iter().flatten().collect()
}

/// [`drive_lanes`] for an all-or-nothing batch: after the first error no
/// further request is created, and once the ones in flight finish the
/// lowest-indexed error is returned.
pub fn try_drive_lanes<M, T, E>(
    mut queue: impl Iterator<Item = M>,
    lanes: usize,
    mut step: impl FnMut(&mut M) -> Step<Result<T, E>>,
) -> Result<Vec<T>, E> {
    let lanes = lanes.min(queue.size_hint().1.unwrap_or(usize::MAX));
    let failed = std::cell::Cell::new(false);
    let queue = std::iter::from_fn(|| if failed.get() { None } else { queue.next() });
    drive_lanes(queue, lanes, |m| {
        let next = step(m);
        if let Step::Done(Err(_)) = next {
            failed.set(true);
        }
        next
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    /// A request that waits out its cost once, then reports the
    /// milliseconds since `t0` at which it finished.
    fn wait_once(t0: SimInstant) -> impl FnMut(&mut (u64, bool)) -> Step<u128> {
        move |(cost, issued)| {
            if std::mem::replace(issued, true) {
                return Step::Done(crate::now().duration_since(t0).as_millis());
            }
            Step::Wait(Duration::from_millis(*cost))
        }
    }

    #[test]
    fn one_lane_replays_serial_steps() {
        let costs = [3u64, 0, 5, 2];
        let kernel = Kernel::new();
        let (serial, laned) = kernel.run("client", || {
            let mut step = wait_once(crate::now());
            let serial: Vec<_> = costs
                .iter()
                .map(|&c| {
                    let mut req = (c, false);
                    step_serial(|| step(&mut req))
                })
                .collect();
            let laned = drive_lanes(
                costs.map(|c| (c, false)).into_iter(),
                1,
                wait_once(crate::now()),
            );
            (serial, laned)
        });
        assert_eq!(serial, vec![3, 3, 8, 10]);
        assert_eq!(serial, laned);
    }

    #[test]
    fn idle_lanes_take_the_next_request_and_results_keep_queue_order() {
        let kernel = Kernel::new();
        let done = kernel.run("client", || {
            // Lane 0 takes 10 ms, lane 1 takes 1 ms: lane 1 serves the
            // next three requests before lane 0 frees.
            let costs = [10u64, 1, 1, 1, 1];
            drive_lanes(
                costs.map(|c| (c, false)).into_iter(),
                2,
                wait_once(crate::now()),
            )
        });
        assert_eq!(done, vec![10, 1, 2, 3, 4]);
    }

    #[test]
    fn immediate_outcomes_never_hold_a_lane_and_zero_lanes_is_one() {
        let kernel = Kernel::new();
        let (done, elapsed) = kernel.run("client", || {
            let t0 = crate::now();
            let done = drive_lanes(
                [None, Some(4u64), None, Some(4)].into_iter(),
                0,
                |c| match c.take() {
                    Some(ms) => Step::Wait(Duration::from_millis(ms)),
                    None => Step::Done(crate::now().duration_since(t0).as_millis()),
                },
            );
            (done, crate::now().duration_since(t0))
        });
        assert_eq!(done, vec![0, 4, 4, 8]);
        assert_eq!(elapsed, Duration::from_millis(8));
    }

    #[test]
    fn a_failed_batch_issues_nothing_more_and_waits_out_its_flights() {
        let kernel = Kernel::new();
        let (pulled, got, elapsed) = kernel.run("client", || {
            let t0 = crate::now();
            let mut pulled = 0;
            // Entry 1 fails at 2 ms while entry 0 is in flight: entries
            // 2.. are never created, and the batch returns once entry 0
            // fails too, at 5 ms, with the lowest-indexed error.
            let costs = [(5u64, false), (2, false), (3, true), (1, true), (1, true)];
            let queue = costs.into_iter().map(|c| {
                pulled += 1;
                (c, false)
            });
            let got = try_drive_lanes(queue, 2, |((ms, ok), sent)| {
                if !std::mem::replace(sent, true) {
                    return Step::Wait(Duration::from_millis(*ms));
                }
                let at = crate::now().duration_since(t0).as_millis();
                Step::Done(if *ok { Ok(at) } else { Err(at) })
            });
            (pulled, got, crate::now().duration_since(t0))
        });
        assert_eq!(pulled, 2);
        assert_eq!(got, Err(5));
        assert_eq!(elapsed, Duration::from_millis(5));
    }

    #[test]
    fn a_clean_fallible_batch_matches_the_plain_driver() {
        let kernel = Kernel::new();
        let (plain, fallible) = kernel.run("client", || {
            let costs = [10u64, 1, 1, 1, 1];
            let plain = drive_lanes(
                costs.map(|c| (c, false)).into_iter(),
                2,
                wait_once(crate::now()),
            );
            let mut step = wait_once(crate::now());
            let fallible = try_drive_lanes(costs.map(|c| (c, false)).into_iter(), 2, |m| {
                step(m).map(Ok::<_, ()>)
            });
            (plain, fallible)
        });
        assert_eq!(Ok(plain), fallible);
    }

    #[test]
    fn an_empty_queue_returns_at_once() {
        let kernel = Kernel::new();
        let out: Vec<()> = kernel.run("client", || {
            drive_lanes(std::iter::empty::<()>(), 8, |_| Step::Done(()))
        });
        assert!(out.is_empty());
    }
}
