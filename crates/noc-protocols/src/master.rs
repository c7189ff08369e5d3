//! The protocol-neutral issue core shared by every socket master.
//!
//! A master agent splits in two halves:
//!
//! - the [`Issuer`] owns everything a socket does not decide: the
//!   [`CommandSource`] and the per-lane command queues it fills, issue
//!   deadlines, the clock period, the outstanding commands and the
//!   completion log;
//! - a [`Socket`] implementation owns what the protocol does decide:
//!   its port and beat types, its issue gate, and how a command becomes
//!   a request and a response retires a command.
//!
//! [`Master`] joins the two and runs the one issue loop: a round-robin
//! over lanes (socket threads; a single lane for ordered and ID-based
//! sockets), one request per tick. A lane the round-robin does not reach
//! because the port is busy misses that tick of its countdown.
//!
//! The master pulls its own commands: whenever a lane its source feeds
//! holds no queued command, it pulls until that lane holds one or the
//! source ends, queueing the other lanes' commands as they arrive.
//! Every lane head is therefore present whenever an up-front program
//! would have it, so a streamed source runs bit-identically to the
//! program it yields, however it chunks its pulls.

use crate::command::{CommandSource, CompletionLog, CompletionRecord, Program, SocketCommand};
use noc_transaction::{RespStatus, StreamId};
use std::collections::VecDeque;
use std::fmt;

/// How the port took an offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The port had no room; the command stays at its lane's head.
    Refused,
    /// Issued; the command retires when its response arrives.
    Accepted,
    /// Issued as a posted write: it completes on acceptance.
    Posted,
}

/// The protocol-specific half of a socket master.
pub trait Socket: fmt::Debug + Clone {
    /// The master↔slave port.
    type Port: Default + fmt::Debug + Clone;
    /// Completion records carry the command's stream (threaded and
    /// ID-based sockets) rather than stream 0 (ordered sockets).
    const STREAMS: bool;
    /// Panics unless the socket can express command `index`.
    fn validate(&self, index: usize, cmd: &SocketCommand) {
        let _ = (index, cmd);
    }
    /// `true` while the port cannot take any request. The round-robin
    /// stops there and the lanes it does not reach miss this tick of
    /// their countdown. Sockets whose offers simply fail keep `false`.
    fn port_busy(port: &Self::Port) -> bool {
        let _ = port;
        false
    }
    /// `true` while the head of `lane` ([`Issuer::head`]) cannot issue
    /// until a response retires. Its deadline keeps running; `wake_at`
    /// ignores it.
    fn blocked(&self, core: &Issuer, lane: usize) -> bool {
        let _ = (core, lane);
        false
    }
    /// Offers `cmd`, the head of `lane`, on the port.
    fn offer(&mut self, lane: usize, cmd: &SocketCommand, port: &mut Self::Port) -> Offer;
    /// Takes responses off the port and retires their commands through
    /// [`Issuer::complete`].
    fn retire(&mut self, core: &mut Issuer, cycle: u64, port: &mut Self::Port);
}

/// One issue lane: a socket thread, or the whole socket.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Commands waiting to issue, with their program indices, in
    /// program order.
    queue: VecDeque<(usize, SocketCommand)>,
    /// Issued commands awaiting a response: (index, issued_at,
    /// command), in issue order.
    outstanding: VecDeque<(usize, u64, SocketCommand)>,
    /// Base cycle at which the head command's `delay_before` countdown
    /// runs out; `None` while the lane cannot count down (empty queue,
    /// or at its outstanding limit).
    issue_at: Option<u64>,
}

/// The protocol-neutral issue core of a [`Master`].
#[derive(Debug, Clone)]
pub struct Issuer {
    /// Where the lanes' commands come from; `None` once it ended.
    source: Option<Box<dyn CommandSource>>,
    /// Commands pulled so far: the program index of the next one.
    pulled: usize,
    lanes: Vec<Lane>,
    /// Outstanding commands a lane may hold and still count down.
    limit: u32,
    /// Base cycles per socket tick.
    period: u64,
    /// The lane the round-robin tries first.
    rr: usize,
    streams: bool,
    log: CompletionLog,
}

impl Issuer {
    /// The next command `lane` issues.
    ///
    /// # Panics
    ///
    /// Panics if the lane has no unissued command.
    #[inline]
    pub fn head(&self, lane: usize) -> &SocketCommand {
        &self.lanes[lane]
            .queue
            .front()
            .expect("lane holds a command")
            .1
    }

    /// Commands of `lane` awaiting a response, oldest first.
    #[inline]
    pub fn outstanding(&self, lane: usize) -> impl ExactSizeIterator<Item = &SocketCommand> {
        self.lanes[lane].outstanding.iter().map(|(_, _, cmd)| cmd)
    }

    /// Retires the `nth`-oldest outstanding command of `lane` with the
    /// response observed at `cycle` and returns its record. `data` is
    /// the read data; writes record their payload.
    ///
    /// # Panics
    ///
    /// Panics if `lane` has no `nth` outstanding command.
    #[inline]
    pub fn complete(
        &mut self,
        lane: usize,
        nth: usize,
        status: RespStatus,
        data: Vec<u8>,
        cycle: u64,
    ) -> &CompletionRecord {
        let (idx, issued_at, cmd) = self.lanes[lane]
            .outstanding
            .remove(nth)
            .expect("response with nothing outstanding");
        self.record(idx, issued_at, &cmd, status, data, cycle)
    }

    #[inline]
    fn record(
        &mut self,
        idx: usize,
        issued_at: u64,
        cmd: &SocketCommand,
        status: RespStatus,
        data: Vec<u8>,
        cycle: u64,
    ) -> &CompletionRecord {
        self.log.push(CompletionRecord {
            index: idx,
            opcode: cmd.opcode,
            addr: cmd.addr,
            status,
            data: if cmd.opcode.is_read() {
                data
            } else {
                cmd.payload()
            },
            stream: if self.streams {
                cmd.stream
            } else {
                StreamId::ZERO
            },
            issued_at,
            completed_at: cycle,
        });
        self.log.records().last().expect("just pushed")
    }

    /// Pulls from the source until `lane` holds a command or the source
    /// ends, queueing each pulled command on its lane: its stream's on
    /// threaded sockets. A lane the source does not feed is left empty.
    fn fill<S: Socket>(&mut self, lane: usize, socket: &S) {
        let threaded = self.lanes.len() > 1;
        while self.lanes[lane].queue.is_empty() {
            let Some(source) = &mut self.source else {
                return;
            };
            if threaded && !source.feeds(StreamId::new(lane as u16)) {
                return;
            }
            let chunk = source.pull();
            if chunk.is_empty() {
                self.source = None;
                return;
            }
            for cmd in chunk {
                socket.validate(self.pulled, &cmd);
                let to = if threaded {
                    cmd.stream.raw() as usize
                } else {
                    0
                };
                self.lanes[to].queue.push_back((self.pulled, cmd));
                self.pulled += 1;
            }
        }
    }

    /// Starts the countdown of every lane head that can count down but
    /// does not yet, as of the tick at base cycle `tick`. Returns `true`
    /// if some lane's deadline has come due by `tick`.
    #[inline]
    fn arm(&mut self, tick: u64) -> bool {
        let mut due = false;
        for lane in &mut self.lanes {
            let Some((_, head)) = lane.queue.front() else {
                continue;
            };
            if lane.issue_at.is_none() && (lane.outstanding.len() as u32) < self.limit {
                let delay = head.delay_before as u64;
                lane.issue_at = Some(tick + delay * self.period);
            }
            due |= lane.issue_at.is_some_and(|at| at <= tick);
        }
        due
    }

    /// The guard behind `set_clock_period` and `load_program`: panics
    /// with `what` once a command issued or completed.
    fn assert_not_started(&self, what: &str) {
        assert!(
            self.log.is_empty() && self.lanes.iter().all(|l| l.outstanding.is_empty()),
            "{what} before execution starts"
        );
    }
}

/// A socket master agent: the shared [`Issuer`] driven by one
/// protocol's [`Socket`] rules. Each protocol module names its master
/// as an alias of this type (`AhbMaster = Master<AhbSocket>`, …) and
/// provides the constructor.
#[derive(Debug, Clone)]
pub struct Master<S: Socket> {
    core: Issuer,
    socket: S,
}

impl<S: Socket> Master<S> {
    /// A master with `lanes` issue lanes, each of which counts its head
    /// down only while it holds fewer than `limit` outstanding commands.
    ///
    /// # Panics
    ///
    /// Panics if `socket` rejects a command of `program`.
    pub fn with_socket(program: Program, socket: S, lanes: usize, limit: u32) -> Self {
        Self::from_source(Box::new(program), socket, lanes, limit)
    }

    /// A master pulling its commands from `source`; see
    /// [`Master::load_program`].
    fn from_source(source: Box<dyn CommandSource>, socket: S, lanes: usize, limit: u32) -> Self {
        let mut core = Issuer {
            source: Some(source),
            pulled: 0,
            lanes: vec![Lane::default(); lanes],
            limit,
            period: 1,
            rr: 0,
            streams: S::STREAMS,
            log: CompletionLog::new(),
        };
        for lane in 0..lanes {
            core.fill(lane, &socket);
        }
        core.arm(0);
        Master { core, socket }
    }

    /// The protocol half.
    pub(crate) fn socket(&self) -> &S {
        &self.socket
    }

    /// Sets the socket clock: the master ticks on multiples of `period`
    /// base cycles, so a `delay_before` of `n` ticks spans `n * period`
    /// base cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or the master already issued or
    /// completed a command.
    pub fn set_clock_period(&mut self, period: u64) {
        assert!(period > 0, "clock period must be non-zero");
        self.core.assert_not_started("the clock can only be set");
        self.core.period = period;
        for lane in &mut self.core.lanes {
            lane.issue_at = None;
        }
        self.core.arm(0);
    }

    /// Replaces the program of a master that has not started executing
    /// with the commands `program` streams, keeping the socket
    /// parameters and clock. Equivalent to constructing the master with
    /// everything `program` yields in the first place: warm-state
    /// forking and streamed workloads rely on that equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the master already issued or completed a command, or
    /// if the socket rejects a pulled command.
    pub fn load_program(&mut self, program: Box<dyn CommandSource>) {
        self.core.assert_not_started("programs can only be loaded");
        let (lanes, limit, period) = (self.core.lanes.len(), self.core.limit, self.core.period);
        *self = Master::from_source(program, self.socket.clone(), lanes, limit);
        self.set_clock_period(period);
    }

    /// Returns `true` when every command has completed.
    pub fn done(&self) -> bool {
        self.core.source.is_none()
            && self
                .core
                .lanes
                .iter()
                .all(|l| l.queue.is_empty() && l.outstanding.is_empty())
    }

    /// The completion log.
    pub fn log(&self) -> &CompletionLog {
        &self.core.log
    }

    /// The earliest base cycle at which a tick can change the master's
    /// state, assuming no response reaches the port meanwhile: the
    /// nearest issue deadline over the lanes whose head may issue.
    /// `None` when every lane is drained, at its outstanding limit, or
    /// gated until a response retires.
    pub fn wake_at(&self) -> Option<u64> {
        let core = &self.core;
        core.lanes
            .iter()
            .enumerate()
            .filter_map(|(lane, l)| {
                let at = l.issue_at?;
                (!self.socket.blocked(core, lane)).then_some(at)
            })
            .min()
    }

    /// Advances one socket cycle: retires responses, then issues at most
    /// one request, trying lanes round-robin.
    pub fn tick(&mut self, cycle: u64, port: &mut S::Port) {
        self.socket.retire(&mut self.core, cycle, port);
        let core = &mut self.core;
        // Armed lanes are exactly the ones that count down when the
        // round-robin reaches them.
        if !core.arm(cycle) && !S::port_busy(port) {
            return; // nothing is due, and every lane counts down
        }
        let n = core.lanes.len();
        let rr = core.rr;
        let wrap = |k: usize| if rr + k < n { rr + k } else { rr + k - n };
        let mut reached = n;
        for k in 0..n {
            if S::port_busy(port) {
                reached = k;
                break;
            }
            let lane = wrap(k);
            let l = &core.lanes[lane];
            let cmd = match (l.issue_at, l.queue.front()) {
                (Some(at), Some((_, cmd))) if at <= cycle => cmd,
                _ => continue,
            };
            if self.socket.blocked(core, lane) {
                continue;
            }
            let offer = self.socket.offer(lane, cmd, port);
            if offer == Offer::Refused {
                continue;
            }
            let l = &mut core.lanes[lane];
            let (idx, cmd) = l.queue.pop_front().expect("offered the head");
            l.issue_at = None;
            if offer == Offer::Posted {
                core.record(idx, cycle, &cmd, RespStatus::Okay, Vec::new(), cycle);
            } else {
                l.outstanding.push_back((idx, cycle, cmd));
            }
            core.fill(lane, &self.socket);
            core.rr = wrap(k + 1);
            core.arm(cycle + core.period);
            reached = k + 1;
            break;
        }
        // A lane the round-robin never reached did not count down.
        for k in reached..n {
            if let Some(at) = &mut core.lanes[wrap(k)].issue_at {
                if cycle < *at {
                    *at += core.period;
                }
            }
        }
    }
}

impl<S: Socket> fmt::Display for Master<S>
where
    S: fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = &self.core;
        let unissued: usize = core.lanes.iter().map(|l| l.queue.len()).sum();
        let out: usize = core.lanes.iter().map(|l| l.outstanding.len()).sum();
        write!(
            f,
            "{}-master pc={}/{} out={out} ({} done",
            self.socket,
            core.pulled - unissued,
            core.pulled,
            core.log.len()
        )?;
        if core.lanes.len() > 1 {
            write!(f, ", {} threads", core.lanes.len())?;
        }
        f.write_str(")")
    }
}
