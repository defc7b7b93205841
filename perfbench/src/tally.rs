//! Failure accounting: every measured request ends answered (and then
//! byte-compared with its reference) or failed, and is never retried.

use tag_serve::{ReplyHandle, Request, ServeError, Server};

/// Outcome counts of the measured requests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Answers byte-identical to their reference.
    pub matched: u64,
    /// Answers that differ from their reference.
    pub mismatched: u64,
    /// Requests shed at admission because the queue was full.
    pub queue_full: u64,
    /// Requests dropped because their deadline passed while queued.
    pub deadline: u64,
    /// Requests refused for another reason (unknown domain, shutdown).
    pub refused: u64,
    /// Requests whose execution (or reference) panicked.
    pub panicked: u64,
}

impl Tally {
    /// Failed requests: mismatches, sheds, drops, refusals and panics.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.queue_full + self.deadline + self.refused + self.panicked
    }

    /// Share of attempted requests answered with their reference answer
    /// (1 − error rate). Sheds and deadline drops lower it.
    pub fn answered_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.matched as f64 / self.attempted as f64
        }
    }

    /// No answer was wrong and nothing panicked. Sheds and deadline
    /// drops are load outcomes, not wrong answers: they count as failed
    /// but leave the run correct.
    pub fn clean(&self) -> bool {
        self.mismatched == 0 && self.panicked == 0 && self.refused == 0 && self.attempted > 0
    }

    /// Record an answer, byte-compared with its reference.
    pub fn answer(&mut self, got: &str, reference: &str) {
        self.attempted += 1;
        if got == reference {
            self.matched += 1;
        } else {
            self.mismatched += 1;
        }
    }

    /// Record a request that panicked.
    pub fn panic(&mut self) {
        self.attempted += 1;
        self.panicked += 1;
    }

    /// Record a request the server did not answer.
    pub fn error(&mut self, e: &ServeError) {
        self.attempted += 1;
        match e {
            ServeError::QueueFull => self.queue_full += 1,
            ServeError::DeadlineExceeded => self.deadline += 1,
            ServeError::UnknownDomain(_) | ServeError::Shutdown => self.refused += 1,
        }
    }
}

/// Submit `req` once. A refusal is recorded in `tally` and not retried;
/// an admitted request is recorded when its reply is.
pub fn submit_once(server: &Server, req: Request, tally: &mut Tally) -> Option<ReplyHandle> {
    match server.submit(req) {
        Ok(handle) => Some(handle),
        Err(e) => {
            tally.error(&e);
            None
        }
    }
}
