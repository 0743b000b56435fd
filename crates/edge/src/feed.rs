//! The certified-delta feed window: a contiguous, bounded run of
//! verified deltas ending at the newest one its holder has seen.
//!
//! Two parties keep one per partition under the same rules, so the
//! rules live here once: an edge's [`crate::ReplayCache`] (what it can
//! attach to a replay as a freshness certificate) and a subscribed
//! client (what it has already verified and need not be sent again —
//! it names the run to the edge as a [`FeedCursor`]). Contiguity is the
//! invariant everything rests on: a freshness certificate is a gap-free
//! chain, so a delta arriving past a gap restarts the window rather
//! than splicing it.

use std::collections::VecDeque;
use std::sync::Arc;

use transedge_common::BatchNum;

use crate::response::{BatchCommitment, CertifiedDelta};

/// Deltas a [`FeedWindow`] retains, whoever holds it. An edge's window
/// has to span the gap between its oldest *servable* snapshot and the
/// feed head; a client's the same gap as seen across its reads — a
/// small multiple of an edge's `max_batches` covers both.
pub const MAX_FEED_DELTAS: usize = 64;

/// The batch range `first..=head` a subscriber's window covers, as a
/// [`crate::ReadQuery`] tells it to the serving edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeedCursor {
    pub first: BatchNum,
    pub head: BatchNum,
}

impl FeedCursor {
    /// The batch after which deltas must travel with a response served
    /// at `served`: the cursor's head when the held run reaches back to
    /// `served + 1` (held ++ suffix is then gap-free), else `served` —
    /// the whole tail. Edge and verifier both decide by this one rule.
    pub fn resume_after(&self, served: BatchNum) -> BatchNum {
        if self.first.0 <= served.0 + 1 && served <= self.head {
            self.head
        } else {
            served
        }
    }
}

/// What [`FeedWindow::push`] did with a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pushed {
    /// `head + 1` (or the first delta ever): the run grew by one.
    Extended,
    /// At or before the head: a repeat delivery, ignored.
    Duplicate,
    /// Past a gap: the old run is useless as a certificate, so the
    /// window now holds this delta alone.
    Restarted,
}

/// See the module docs. Entries are shared, not copied: an edge's
/// window, the responses it attaches them to and the windows of the
/// clients that verified them all point at one allocation per delta.
#[derive(Clone, Debug)]
pub struct FeedWindow<H> {
    /// Oldest first, batch numbers consecutive.
    deltas: VecDeque<Arc<CertifiedDelta<H>>>,
}

impl<H> Default for FeedWindow<H> {
    fn default() -> Self {
        FeedWindow {
            deltas: VecDeque::new(),
        }
    }
}

impl<H: BatchCommitment> FeedWindow<H> {
    /// Take in a delta the caller has **already verified**, keeping
    /// the run contiguous and at most [`MAX_FEED_DELTAS`] long.
    pub fn push(&mut self, delta: Arc<CertifiedDelta<H>>) -> Pushed {
        let mut pushed = Pushed::Extended;
        if let Some(head) = self.head() {
            if delta.batch() <= head {
                return Pushed::Duplicate;
            }
            if delta.batch().0 > head.0 + 1 {
                self.deltas.clear();
                pushed = Pushed::Restarted;
            }
        }
        self.deltas.push_back(delta);
        if self.deltas.len() > MAX_FEED_DELTAS {
            self.deltas.pop_front();
        }
        pushed
    }

    /// Take in the contiguous run (oldest first) a verified response
    /// rested on. A run reaching further back than the window — a read
    /// served at an older batch, sent its whole tail — becomes the
    /// base the held deltas are pushed onto, so the next such read
    /// finds a cursor that reaches.
    pub fn absorb(&mut self, run: &[Arc<CertifiedDelta<H>>]) {
        let (first, held) = (run.first(), self.deltas.front());
        let reaches_back = first.zip(held).is_some_and(|(r, w)| r.batch() < w.batch());
        let held = if reaches_back {
            std::mem::take(&mut self.deltas)
        } else {
            VecDeque::new()
        };
        for delta in run.iter().cloned().chain(held) {
            self.push(delta);
        }
    }

    /// The newest delta held, if any.
    pub fn newest(&self) -> Option<&Arc<CertifiedDelta<H>>> {
        self.deltas.back()
    }

    /// The newest batch the window reaches, if any.
    pub fn head(&self) -> Option<BatchNum> {
        self.newest().map(|d| d.batch())
    }

    /// The range held, if any.
    pub fn cursor(&self) -> Option<FeedCursor> {
        Some(FeedCursor {
            first: self.deltas.front()?.batch(),
            head: self.head()?,
        })
    }

    /// Deltas held.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The run `(from, head]`, provided the window chains from `from`
    /// without a gap (an empty run when `from` *is* the head); `None`
    /// when it cannot vouch for every batch after `from`.
    pub fn after(
        &self,
        from: BatchNum,
    ) -> Option<impl Iterator<Item = &Arc<CertifiedDelta<H>>> + Clone> {
        let FeedCursor { first, head } = self.cursor()?;
        if from.0 + 1 < first.0 || head < from {
            return None;
        }
        Some(self.deltas.range((from.0 + 1 - first.0) as usize..))
    }

    /// The held deltas `(served, resume]` that stand in for what a
    /// response resumed after `resume` did not carry (none when the
    /// window does not chain from `served`).
    pub fn run(
        &self,
        served: BatchNum,
        resume: BatchNum,
    ) -> impl Iterator<Item = &Arc<CertifiedDelta<H>>> + Clone {
        self.after(served)
            .into_iter()
            .flatten()
            .take(resume.0.saturating_sub(served.0) as usize)
    }
}
