//! The rendezvous pool both nets match in: per name, the sends and the
//! receives not yet matched (§2.7). It holds the one pairing rule
//! ([`Pool::post_send`], [`Pool::post_recv`]: a post pairs with the
//! earliest eligible post of the other side, or waits), the one
//! eligibility rule ([`eligible`]), the one match record
//! ([`Pool::record`]: `NetStats` and the staging account) and the one
//! staging sweep. A net supplies post times — virtual on
//! [`crate::SimNet`], the pool's lock-order tick on [`crate::ThreadNet`] —
//! and what a pair becomes.
//!
//! Each name's posts are kept in pick order: earliest `(time, seq)`
//! first, where `seq` is the post order ([`Pool::tick`]), and a reordered
//! message (an injected fault on `ThreadNet`) jumps to the front.

use crate::stats::NetStats;
use std::borrow::Cow;
use std::collections::HashMap;
use xdp_runtime::{Msg, Tag, REDIST_SALT_FLOOR};

/// May a send bound to `dest` (`None`: unbound, `E ->`) reach processor
/// `pid`? An unbound send goes to whichever receiver claims it, a bound
/// one (`E -> S`) only to the pid it names.
pub fn eligible(dest: Option<usize>, pid: usize) -> bool {
    dest.is_none_or(|d| d == pid)
}

/// A posted, not-yet-matched send.
#[derive(Clone, Debug)]
pub(crate) struct SendPost {
    pub(crate) msg: Msg,
    pub(crate) dest: Option<usize>,
    pub(crate) time: f64,
    /// Extra transit latency from injected faults (retry backoff and
    /// delay), charged to the simulator's wire interval; 0 otherwise.
    pub(crate) extra: f64,
}

impl SendPost {
    /// Bytes on the wire: the payload alone when bound, plus the name
    /// header when the name travels with it.
    pub(crate) fn wire(&self) -> u64 {
        if self.dest.is_some() {
            self.msg.payload_bytes()
        } else {
            self.msg.size_bytes()
        }
    }
}

/// A posted, not-yet-matched receive.
#[derive(Clone, Debug)]
pub(crate) struct RecvPost {
    pub(crate) dst: usize,
    pub(crate) time: f64,
    pub(crate) req_id: u64,
}

/// One side of a name's unmatched posts, each with its place in the
/// pool's post order, kept in pick order.
type Queue<T> = Vec<(u64, T)>;

/// Insert `post`, made at `time`, as number `seq` of the post order.
fn insert<T>(q: &mut Queue<T>, seq: u64, post: T, time: impl Fn(&T) -> f64, front: bool) {
    let key = (time(&post), seq);
    let at = if front {
        0
    } else {
        q.partition_point(|(n, p)| (time(p), *n) <= key)
    };
    q.insert(at, (seq, post));
}

/// A name's unmatched sends and receives.
#[derive(Clone, Debug, Default)]
struct Posts {
    sends: Queue<SendPost>,
    recvs: Queue<RecvPost>,
}

impl Posts {
    /// Take the first send that `pid` may receive.
    fn take_send(&mut self, pid: usize) -> Option<SendPost> {
        let i = self.sends.iter().position(|(_, s)| eligible(s.dest, pid))?;
        Some(self.sends.remove(i).1)
    }

    /// Take the first receive that a send bound to `dest` may reach.
    fn take_recv(&mut self, dest: Option<usize>) -> Option<RecvPost> {
        let i = self.recvs.iter().position(|(_, r)| eligible(dest, r.dst))?;
        Some(self.recvs.remove(i).1)
    }

    /// Queue a send posted `seq`-th, at the front when `front`.
    fn queue_send(&mut self, seq: u64, post: SendPost, front: bool) {
        insert(&mut self.sends, seq, post, |s| s.time, front);
    }

    /// Queue a receive posted `seq`-th.
    fn queue_recv(&mut self, seq: u64, post: RecvPost) {
        insert(&mut self.recvs, seq, post, |r| r.time, false);
    }
}

/// A send and the receive it paired with.
pub(crate) type Pair = (SendPost, RecvPost);

/// The unmatched posts of a net, by name, and what its matches recorded.
#[derive(Clone, Debug)]
pub(crate) struct Pool {
    /// Each name's place in `posts`: a lookup copies it out, so one hash
    /// finds or adds a name.
    names: HashMap<Tag, usize>,
    posts: Vec<Posts>,
    tick: u64,
    /// A redistribution message's staging buffer, `(start, end, src, dst,
    /// bytes)`: live on both endpoints from its send's post to `end`.
    spans: Vec<(f64, f64, usize, usize, u64)>,
    stats: NetStats,
}

impl Pool {
    pub(crate) fn new(nprocs: usize) -> Pool {
        Pool {
            names: HashMap::new(),
            posts: Vec::new(),
            tick: 0,
            spans: Vec::new(),
            stats: NetStats::new(nprocs),
        }
    }

    /// The next tick of the pool's post order.
    pub(crate) fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The posts under `tag`; the tag is cloned only for a new name.
    fn posts(&mut self, tag: Cow<'_, Tag>) -> &mut Posts {
        let at = match self.names.get(tag.as_ref()) {
            Some(&at) => at,
            None => {
                self.names.insert(tag.into_owned(), self.posts.len());
                self.posts.push(Posts::default());
                self.posts.len() - 1
            }
        };
        &mut self.posts[at]
    }

    /// Post `send` as number `seq` of the post order: pair it with the
    /// earliest receive it may reach, or queue it — at the front when
    /// `front`.
    pub(crate) fn post_send(&mut self, seq: u64, send: SendPost, front: bool) -> Option<Pair> {
        let posts = self.posts(Cow::Borrowed(&send.msg.tag));
        match posts.take_recv(send.dest) {
            Some(recv) => Some((send, recv)),
            None => {
                posts.queue_send(seq, send, front);
                None
            }
        }
    }

    /// Post a receive for `tag` as number `seq` of the post order: pair
    /// it with the earliest send that may reach it, or queue it.
    pub(crate) fn post_recv(&mut self, seq: u64, tag: Tag, recv: RecvPost) -> Option<Pair> {
        let posts = self.posts(Cow::Owned(tag));
        match posts.take_send(recv.dst) {
            Some(send) => Some((send, recv)),
            None => {
                posts.queue_recv(seq, recv);
                None
            }
        }
    }

    /// Take the earliest send under `tag` that `pid` may receive, posting
    /// no receive: `ThreadNet`'s blocking `recv`.
    pub(crate) fn claim(&mut self, tag: &Tag, pid: usize) -> Option<SendPost> {
        self.posts(Cow::Borrowed(tag)).take_send(pid)
    }

    /// Record `send` matched on `dst`: count it, and when it carries a
    /// redistribution (salted tag) between two processors, keep its
    /// staging span, ending at `end`.
    pub(crate) fn record(&mut self, send: &SendPost, dst: usize, end: f64) {
        let (src, bytes) = (send.msg.src, send.msg.payload_bytes());
        let bound = send.dest.is_some();
        self.stats.record(src, dst, bytes, send.wire(), bound);
        if send.msg.tag.salt >= REDIST_SALT_FLOOR && src != dst {
            self.spans.push((send.time, end, src, dst, bytes));
        }
    }

    /// The counters, with the staging high-water mark: the most span bytes
    /// live on any one processor at once. At equal times releases apply
    /// before acquisitions, so back-to-back rounds don't double-charge.
    pub(crate) fn stats(&self) -> NetStats {
        let mut stats = self.stats.clone();
        let mut events: Vec<(f64, bool, u64)> = Vec::new();
        for p in 0..stats.sent_by.len() {
            events.clear();
            for &(start, end, src, dst, bytes) in &self.spans {
                if src == p || dst == p {
                    events.push((start, true, bytes));
                    events.push((end, false, bytes));
                }
            }
            // Sort by time; at ties, ends (false < true) come first.
            events.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
            let mut live = 0u64;
            for &(_, is_start, bytes) in &events {
                if is_start {
                    live += bytes;
                    stats.redist_peak_bytes = stats.redist_peak_bytes.max(live);
                } else {
                    live = live.saturating_sub(bytes);
                }
            }
        }
        stats
    }

    /// Numbers of unmatched sends and receives.
    pub(crate) fn pending(&self) -> (usize, usize) {
        let sends = self.posts.iter().map(|p| p.sends.len()).sum();
        (sends, self.posts.iter().map(|p| p.recvs.len()).sum())
    }

    /// One line per unmatched post, by name, then in post order.
    pub(crate) fn pending_detail(&self) -> String {
        let mut names: Vec<_> = self.names.iter().collect();
        names.sort_by_key(|(tag, _)| *tag);
        let mut out = String::new();
        for (tag, &at) in names {
            let (sends, recvs) = (&self.posts[at].sends, &self.posts[at].recvs);
            let send = |s: &SendPost| format!("send {tag} from p{} at t={}", s.msg.src, s.time);
            let recv = |r: &RecvPost| format!("recv {tag} on p{} at t={}", r.dst, r.time);
            let mut lines: Vec<_> = (sends.iter().map(|(seq, s)| (*seq, send(s))))
                .chain(recvs.iter().map(|(seq, r)| (*seq, recv(r))))
                .collect();
            lines.sort_unstable_by_key(|(seq, _)| *seq);
            for (_, line) in lines {
                out += &format!("  unmatched {line}\n");
            }
        }
        out
    }
}
