//! The volume proper: member drives + data plane + degraded-mode service.

use crate::data::{pattern_word, zeroed_stores, Plane, SectorStore};
use crate::layout::{Chunk, StripePolicy, VolumeKind, VolumeLayout};
use crate::FleetError;
use sim_disk::crash::words_payload;
use sim_disk::disk::Disk;
use sim_disk::request::{Completion, Op, Request};
use sim_disk::{Backend, SimTime};
use traxtent::boundaries::ConfidentBoundaries;
use traxtent::obs::span::{self, Span, SpanRecorder};
use traxtent::obs::Registry;

/// How many times a member command that surfaces a
/// [`sim_disk::fault::CommandFault`] is attempted before the volume gives
/// up on that member for the access. A read then falls over to redundancy
/// (a mirror copy, parity reconstruction) or reports the data
/// [`FleetError::Unrecoverable`]; a write never falls over — the access
/// returns [`FleetError::RetriesExhausted`] with the data plane untouched.
pub const FAULT_RETRIES: u32 = 4;

/// Builds a member's ground-truth boundary map straight from its drive
/// geometry, at full confidence — the shortcut for tests and examples
/// where running dixtrac extraction per member would be noise. Production
/// paths use [`dixtrac`-style extraction] per member instead.
///
/// [`dixtrac`-style extraction]: crate#example
pub fn member_boundaries(disk: &Disk) -> ConfidentBoundaries {
    ConfidentBoundaries::certain(disk.track_boundaries())
}

/// One member drive and its health flag.
#[derive(Debug)]
pub(crate) struct Member {
    pub(crate) disk: Disk,
    pub(crate) healthy: bool,
}

impl Member {
    /// Issues a command clamped to the member's own issue-time floor
    /// (per-member FCFS), retrying surfaced transient faults.
    fn issue(&mut self, req: Request, at: SimTime) -> Result<Completion, ()> {
        for _ in 0..FAULT_RETRIES {
            let t = at.max(self.disk.last_issue());
            if let Ok(done) = self.disk.try_service(req, t) {
                return Ok(done);
            }
        }
        Err(())
    }

    /// Attaches the words just written by the member's last successful
    /// write command to its crash log (no-op when crash capture is not
    /// armed). Must be called right after the issuing write, before any
    /// other command goes to this member.
    fn note_words(&mut self, words: &[u64]) {
        if self.disk.crash_log().is_some() {
            self.disk.note_write_payload(&words_payload(words));
        }
    }
}

/// Running counters of what the volume has done, exported via
/// [`Volume::export_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VolumeStats {
    /// Commands issued to member drives.
    pub member_cmds: u64,
    /// Logical reads that could not use their home member and were served
    /// from a mirror copy or parity reconstruction.
    pub degraded_reads: u64,
    /// Sectors whose contents were reconstructed from redundancy.
    pub reconstructed_sectors: u64,
    /// Logical writes that had to take a degraded path (reconstruct-write
    /// or data-only write under a failed parity member).
    pub degraded_writes: u64,
}

/// A multi-disk volume: heterogeneous member drives behind one logical
/// LBN space, with stripe units snapped to member track boundaries.
#[derive(Debug)]
pub struct Volume {
    pub(crate) layout: VolumeLayout,
    pub(crate) members: Vec<Member>,
    pub(crate) stats: VolumeStats,
    /// Every member's contents; reached through [`Volume::stores`].
    pub(crate) plane: Plane,
    /// Per-member data planes snapshotted by [`Volume::arm_crash`]; the
    /// state a power-cut replay starts from.
    pub(crate) crash_base: Option<Vec<SectorStore>>,
    fill_seed: u64,
    write_seq: u64,
    spans: Option<SpanRecorder>,
    span_seq: u64,
}

/// Span bookkeeping for one logical volume access: the open `vol_cmd`
/// span, the per-member command sub-sequence, and the context that must
/// be restored when the access finishes (or unwinds on error — restoring
/// happens in `Drop` so a failed access never leaks its context into
/// later untraced traffic).
struct AccessSpans {
    rec: SpanRecorder,
    saved: (u64, u32),
    vol_id: u64,
    seq: u64,
    sub: u64,
    parent: u64,
    notes: Vec<&'static str>,
    buf: Vec<Span>,
}

impl AccessSpans {
    /// Issues `req` to `member` under a fresh `member_cmd` span, with the
    /// recorder context pointed at it so the member drive's
    /// [`sim_disk::trace::DiskSpanBridge`] parents its `disk_cmd` spans (one per
    /// attempt — retries stay visible) underneath.
    fn member_issue(
        &mut self,
        member: &mut Member,
        m: usize,
        req: Request,
        at: SimTime,
        role: &'static str,
    ) -> Result<Completion, ()> {
        let id = span::derive_id(self.rec.salt(), span::kind::MEMBER_CMD, self.seq, self.sub);
        self.sub += 1;
        let track = (1 + m) as u32;
        self.rec.set_context(id, track);
        let res = member.issue(req, at);
        let end = match &res {
            Ok(c) => c.completion,
            Err(()) => at,
        };
        let mut s = Span::new(
            id,
            self.parent,
            "member_cmd",
            track,
            at.as_ns(),
            end.as_ns(),
        );
        s.push_attr("member", m);
        s.push_attr("op", req.op.as_str());
        s.push_attr("pstart", req.lbn);
        s.push_attr("len", req.len);
        s.push_attr("role", role);
        if res.is_err() {
            s.push_attr("failed", 1);
        }
        self.buf.push(s);
        res
    }

    /// Opens a `reconstruct` grouping span; member commands issued until
    /// [`AccessSpans::end_reconstruct`] parent under it.
    fn begin_reconstruct(&mut self) -> u64 {
        let id = span::derive_id(self.rec.salt(), span::kind::RECONSTRUCT, self.seq, self.sub);
        self.sub += 1;
        self.parent = id;
        id
    }

    fn end_reconstruct(&mut self, id: u64, chunk: &Chunk, at: SimTime, done: SimTime) {
        let mut s = Span::new(id, self.vol_id, "reconstruct", 0, at.as_ns(), done.as_ns());
        s.push_attr("member", chunk.member);
        s.push_attr("sectors", chunk.len);
        self.buf.push(s);
        self.parent = self.vol_id;
    }

    /// Remembers which service mode the access took (`rmw`,
    /// `reconstruct_write`, …); deduplicated into `mode` attrs at finish.
    fn note(&mut self, mode: &'static str) {
        if !self.notes.contains(&mode) {
            self.notes.push(mode);
        }
    }

    /// Emits the `vol_cmd` span covering the whole access and flushes the
    /// buffered spans to the recorder.
    fn finish(mut self, req: Request, at: SimTime, done: SimTime) {
        let mut v = Span::new(
            self.vol_id,
            self.saved.0,
            "vol_cmd",
            0,
            at.as_ns(),
            done.as_ns(),
        );
        v.push_attr("op", req.op.as_str());
        v.push_attr("lbn", req.lbn);
        v.push_attr("len", req.len);
        for mode in std::mem::take(&mut self.notes) {
            v.push_attr("mode", mode);
        }
        self.buf.push(v);
        let mut buf = std::mem::take(&mut self.buf);
        self.rec.record_all(&mut buf);
    }
}

impl Drop for AccessSpans {
    fn drop(&mut self) {
        self.rec.set_context(self.saved.0, self.saved.1);
    }
}

/// One logical access in flight: its span scope (when recording) and
/// what it amounts to so far. A background pass opens one with
/// `Access::default()` — no span scope, never finished.
#[derive(Default)]
pub(crate) struct Access {
    spans: Option<AccessSpans>,
    /// Latest member completion so far.
    done: SimTime,
}

impl Access {
    /// Records the service mode a chunk took: a `mode` attr on the
    /// `vol_cmd` span.
    fn took(&mut self, mode: &'static str) {
        if let Some(s) = self.spans.as_mut() {
            s.note(mode);
        }
    }

    /// Closes the access issued at `at`: emits its `vol_cmd` span and
    /// reports when the last member command completed. A multi-member
    /// access has no single seek/rotation decomposition, so the breakdown
    /// is zero.
    fn finish(self, request: Request, at: SimTime) -> Completion {
        let completion = self.done.max(at);
        if let Some(s) = self.spans {
            s.finish(request, at, completion);
        }
        Completion {
            request,
            issue: at,
            service_start: at,
            media_end: completion,
            completion,
            cache_hit: false,
            breakdown: Default::default(),
        }
    }
}

/// Issues `req` to `member` with retries, through the span scope when one
/// is active, and books an accepted command on the access.
fn issue_member(
    acc: &mut Access,
    member: &mut Member,
    m: usize,
    req: Request,
    at: SimTime,
    role: &'static str,
) -> Result<SimTime, FleetError> {
    let res = match acc.spans.as_mut() {
        Some(s) => s.member_issue(member, m, req, at, role),
        None => member.issue(req, at),
    };
    let done = res.map_err(|()| FleetError::RetriesExhausted {
        member: m,
        attempts: FAULT_RETRIES,
    })?;
    acc.done = acc.done.max(done.completion);
    Ok(done.completion)
}

/// Data on `member` that no redundancy can stand in for.
pub(crate) fn lost(member: usize) -> FleetError {
    FleetError::Unrecoverable { member }
}

impl Volume {
    fn build(
        kind: VolumeKind,
        members: Vec<(Disk, ConfidentBoundaries)>,
        policy: StripePolicy,
    ) -> Result<Self, FleetError> {
        for (i, (disk, map)) in members.iter().enumerate() {
            if map.table().capacity() != disk.capacity_lbns() {
                return Err(FleetError::MemberMismatch {
                    member: i,
                    boundaries: map.table().capacity(),
                    disk: disk.capacity_lbns(),
                });
            }
        }
        let maps: Vec<ConfidentBoundaries> = members.iter().map(|(_, m)| m.clone()).collect();
        let layout = VolumeLayout::new(kind, &maps, &policy)?;
        let members = members
            .into_iter()
            .map(|(disk, _)| Member {
                disk,
                healthy: true,
            })
            .collect();
        Ok(Volume {
            plane: Plane::Filled(zeroed_stores(&layout)),
            layout,
            members,
            stats: VolumeStats::default(),
            crash_base: None,
            fill_seed: 0,
            write_seq: 0,
            spans: None,
            span_seq: 0,
        })
    }

    /// Attaches a span recorder: every subsequent [`Volume::read`] /
    /// [`Volume::write`] emits a `vol_cmd` span (parented under whatever
    /// context the caller set — the server's dispatch span) with one
    /// `member_cmd` child per member command, and `reconstruct` grouping
    /// spans on RAID-5 degraded reads. Install a
    /// [`sim_disk::trace::DiskSpanBridge`] as each member drive's tracer on the
    /// same recorder to extend the tree down to per-phase drive spans.
    pub fn attach_spans(&mut self, rec: SpanRecorder) {
        self.spans = Some(rec);
    }

    /// Opens one logical access, with a span scope if recording.
    fn begin_access(&mut self) -> Access {
        let spans = self.spans.clone().map(|rec| {
            self.span_seq += 1;
            let saved = rec.context();
            let vol_id = span::derive_id(rec.salt(), span::kind::VOL_CMD, self.span_seq, 0);
            AccessSpans {
                rec,
                saved,
                vol_id,
                seq: self.span_seq,
                sub: 0,
                parent: vol_id,
                notes: Vec::new(),
                buf: Vec::new(),
            }
        });
        Access {
            spans,
            ..Access::default()
        }
    }

    /// A RAID-0 volume: stripe units round-robin across `members`, no
    /// redundancy. Needs at least two members.
    ///
    /// ```
    /// use fleet::{member_boundaries, StripePolicy, Volume};
    /// use sim_disk::disk::Disk;
    /// use sim_disk::models::small_test_disk;
    ///
    /// let members: Vec<_> = (0..2)
    ///     .map(|_| {
    ///         let d = Disk::new(small_test_disk());
    ///         let b = member_boundaries(&d);
    ///         (d, b)
    ///     })
    ///     .collect();
    /// let v = Volume::striped(members, StripePolicy::aligned()).unwrap();
    /// // RAID-0 exposes every member sector as logical space.
    /// assert_eq!(v.capacity(), 2 * 84_000);
    /// ```
    pub fn striped(
        members: Vec<(Disk, ConfidentBoundaries)>,
        policy: StripePolicy,
    ) -> Result<Self, FleetError> {
        Self::build(VolumeKind::Striped, members, policy)
    }

    /// A RAID-1 volume: every member holds a full copy; reads rotate
    /// across healthy members, writes go to all of them. Needs at least
    /// two members.
    ///
    /// ```
    /// use fleet::{member_boundaries, StripePolicy, Volume};
    /// use sim_disk::disk::Disk;
    /// use sim_disk::models::small_test_disk;
    ///
    /// let members: Vec<_> = (0..2)
    ///     .map(|_| {
    ///         let d = Disk::new(small_test_disk());
    ///         let b = member_boundaries(&d);
    ///         (d, b)
    ///     })
    ///     .collect();
    /// let v = Volume::mirrored(members, StripePolicy::aligned()).unwrap();
    /// // A mirror exposes one copy's worth of logical space.
    /// assert_eq!(v.capacity(), 84_000);
    /// ```
    pub fn mirrored(
        members: Vec<(Disk, ConfidentBoundaries)>,
        policy: StripePolicy,
    ) -> Result<Self, FleetError> {
        Self::build(VolumeKind::Mirrored, members, policy)
    }

    /// A RAID-5 volume: per stripe round, one member's unit holds the XOR
    /// parity of the others, rotating through the members. Needs at least
    /// three members.
    ///
    /// ```
    /// use fleet::{member_boundaries, StripePolicy, Volume};
    /// use sim_disk::disk::Disk;
    /// use sim_disk::models::small_test_disk;
    ///
    /// let members: Vec<_> = (0..3)
    ///     .map(|_| {
    ///         let d = Disk::new(small_test_disk());
    ///         let b = member_boundaries(&d);
    ///         (d, b)
    ///     })
    ///     .collect();
    /// let v = Volume::raid5(members, StripePolicy::aligned()).unwrap();
    /// // One member's worth of sectors goes to parity.
    /// assert_eq!(v.capacity(), 2 * 84_000);
    /// ```
    pub fn raid5(
        members: Vec<(Disk, ConfidentBoundaries)>,
        policy: StripePolicy,
    ) -> Result<Self, FleetError> {
        Self::build(VolumeKind::Raid5, members, policy)
    }

    /// The logical↔physical map.
    pub fn layout(&self) -> &VolumeLayout {
        &self.layout
    }

    /// Logical capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.layout.capacity()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &VolumeStats {
        &self.stats
    }

    /// Indices of failed members.
    pub fn failed_members(&self) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&i| !self.members[i].healthy)
            .collect()
    }

    /// True if any member is failed.
    pub fn is_degraded(&self) -> bool {
        self.members.iter().any(|m| !m.healthy)
    }

    /// True if every logical LBN is still readable given current member
    /// health: all members healthy for RAID-0, at least one for a
    /// mirror, at most one failed for RAID-5.
    pub fn can_serve(&self) -> bool {
        let failed = self.failed_members().len();
        match self.layout.kind() {
            VolumeKind::Striped => failed == 0,
            VolumeKind::Mirrored => failed < self.members.len(),
            VolumeKind::Raid5 => failed <= 1,
        }
    }

    /// The volume-wide boundary map (see
    /// [`VolumeLayout::logical_boundaries`]).
    pub fn logical_boundaries(&self) -> ConfidentBoundaries {
        self.layout.logical_boundaries()
    }

    /// Fills the logical space with the canonical [`pattern_word`]
    /// content and establishes mirror/parity redundancy. Data-plane only
    /// — a format costs no simulated time.
    ///
    /// The fill itself is deferred: the plane stays *implicit* (the seed
    /// alone) until the first operation that changes or snapshots
    /// contents fills every surviving member's store — a write, a member
    /// failure, a rebuild, a scrub, arming crash capture, or a RAID-5
    /// reconstruct-read. Until then a healthy read computes its words
    /// from the seed, so a volume that is only ever read never allocates
    /// its stores. A failed member's store stays empty.
    pub fn format(&mut self, seed: u64) {
        self.fill_seed = seed;
        self.plane = Plane::Implicit(seed);
    }

    /// Every member's store, filled first if the plane is implicit.
    pub(crate) fn stores(&mut self) -> &mut [SectorStore] {
        let members = &self.members;
        self.plane.stores(&self.layout, |m| !members[m].healthy)
    }

    /// Member `m`'s contents — empty while it is failed — or `None` while
    /// the plane is implicit (a format nothing has filled yet).
    pub fn member_store(&self, m: usize) -> Option<&SectorStore> {
        match &self.plane {
            Plane::Implicit(_) => None,
            Plane::Filled(stores) => Some(&stores[m]),
        }
    }

    /// `Ok` if `i` names a member.
    pub(crate) fn check_member(&self, i: usize) -> Result<(), FleetError> {
        let members = self.members.len();
        if i < members {
            Ok(())
        } else {
            Err(FleetError::NoSuchMember { member: i, members })
        }
    }

    /// Marks member `i` failed and drops its store: a dead drive holds
    /// nothing, so any data later "recovered" from it can only come from
    /// real reconstruction. An implicit plane is filled first, survivors
    /// only. Idempotent. Fails with [`FleetError::NoSuchMember`] if `i`
    /// is not a member.
    pub fn fail_member(&mut self, i: usize) -> Result<(), FleetError> {
        self.check_member(i)?;
        if self.members[i].healthy {
            self.members[i].healthy = false;
            self.stores()[i] = SectorStore::new(0);
        }
        Ok(())
    }

    /// The one way a member is read: a timed read of `len` sectors at
    /// physical `pstart` of member `m`, issued at `at`. A failed member is
    /// refused without a command ([`FleetError::Unrecoverable`] — it
    /// holds no store to read), a member that faults past the
    /// retry budget is [`FleetError::RetriesExhausted`]; callers fail over
    /// or name the member whose data is actually lost. Returns when the
    /// read completed; the words themselves are the caller's to take from
    /// the member's store.
    pub(crate) fn read_member(
        &mut self,
        acc: &mut Access,
        m: usize,
        pstart: u64,
        len: u64,
        at: SimTime,
        role: &'static str,
    ) -> Result<SimTime, FleetError> {
        if !self.members[m].healthy {
            return Err(lost(m));
        }
        let req = Request::read(pstart, len);
        let done = issue_member(acc, &mut self.members[m], m, req, at, role)?;
        self.stats.member_cmds += 1;
        Ok(done)
    }

    /// The one way a member is written: a timed write of `words` at
    /// physical `pstart` of member `m`, issued at `at`, carrying its crash
    /// payload when capture is armed. The data plane is NOT touched: the
    /// caller commits `words` to the member's store only once every write
    /// of the chunk was accepted, so an exhausted retry budget
    /// ([`FleetError::RetriesExhausted`]) never leaves a half-updated
    /// stripe visible. Health is the caller's business — rebuild writes to
    /// the failed member.
    pub(crate) fn write_member(
        &mut self,
        acc: &mut Access,
        m: usize,
        pstart: u64,
        words: &[u64],
        at: SimTime,
        role: &'static str,
    ) -> Result<SimTime, FleetError> {
        let req = Request::write(pstart, words.len() as u64);
        let done = issue_member(acc, &mut self.members[m], m, req, at, role)?;
        self.members[m].note_words(words);
        self.stats.member_cmds += 1;
        Ok(done)
    }

    /// Reads sectors `[off, off + out.len())` of every member's RAID-5
    /// round-`round` column except the `skip`ped members', all issued at
    /// `at`, and folds the stored words into `out`. Returns when the last
    /// read completed; a failed member among them is refused by its read
    /// before its (empty) store is touched.
    pub(crate) fn xor_survivors(
        &mut self,
        acc: &mut Access,
        round: usize,
        off: u64,
        skip: &[usize],
        at: SimTime,
        out: &mut [u64],
    ) -> Result<SimTime, FleetError> {
        let mut done = at;
        for m in (0..self.members.len()).filter(|m| !skip.contains(m)) {
            let pstart = self.layout.member_extent(round, m).start + off;
            let read = self.read_member(acc, m, pstart, out.len() as u64, at, "survivor")?;
            done = done.max(read);
            self.stores()[m].xor_into(pstart, out);
        }
        Ok(done)
    }

    /// Books a read chunk that was served from redundancy.
    fn degraded_read(&mut self, acc: &mut Access, mode: &'static str, sectors: u64) {
        self.stats.degraded_reads += 1;
        self.stats.reconstructed_sectors += sectors;
        acc.took(mode);
    }

    /// Reads one chunk: from its home member, or — when that member is
    /// failed or keeps faulting — from the next mirror copy or the XOR of
    /// the RAID-5 round's surviving columns. The words are appended to
    /// `data` when the caller wants them; timing, counters and spans are
    /// the same either way.
    fn read_chunk(
        &mut self,
        acc: &mut Access,
        chunk: &Chunk,
        at: SimTime,
        data: Option<&mut Vec<u64>>,
    ) -> Result<(), FleetError> {
        let Chunk {
            member: home,
            pstart,
            len,
            ..
        } = *chunk;
        let n = self.members.len();
        let source = match self.layout.kind() {
            VolumeKind::Striped => {
                self.read_member(acc, home, pstart, len, at, "data")
                    .map_err(|_| lost(home))?;
                home
            }
            VolumeKind::Mirrored => {
                let copy = (0..n)
                    .map(|k| (home + k) % n)
                    .find(|&m| {
                        let role = if m == home { "data" } else { "mirror" };
                        self.read_member(acc, m, pstart, len, at, role).is_ok()
                    })
                    .ok_or(lost(home))?;
                if copy != home {
                    self.degraded_read(acc, "degraded_mirror", len);
                }
                copy
            }
            VolumeKind::Raid5 => {
                let read = self.read_member(acc, home, pstart, len, at, "data");
                if read.is_err() {
                    return self.raid5_reconstruct_read(acc, chunk, at, data);
                }
                home
            }
        };
        if let Some(data) = data {
            self.plane.read_into(source, chunk, data);
        }
        Ok(())
    }

    /// A RAID-5 chunk whose owner cannot serve: the XOR of every surviving
    /// member's column, under one `reconstruct` span. The XOR is the work
    /// a degraded read is, so it runs whether or not anyone keeps the
    /// words.
    fn raid5_reconstruct_read(
        &mut self,
        acc: &mut Access,
        chunk: &Chunk,
        at: SimTime,
        data: Option<&mut Vec<u64>>,
    ) -> Result<(), FleetError> {
        let mut unkept = Vec::new();
        let data = data.unwrap_or(&mut unkept);
        let owner = chunk.member;
        let off = chunk.pstart - self.layout.member_extent(chunk.round, owner).start;
        let base = data.len();
        data.resize(base + chunk.len as usize, 0);
        let rid = acc.spans.as_mut().map(AccessSpans::begin_reconstruct);
        let done = self
            .xor_survivors(acc, chunk.round, off, &[owner], at, &mut data[base..])
            .map_err(|_| lost(owner))?;
        if let (Some(s), Some(id)) = (acc.spans.as_mut(), rid) {
            s.end_reconstruct(id, chunk, at, done);
        }
        self.degraded_read(acc, "reconstruct_read", chunk.len);
        Ok(())
    }

    /// Reads `len` sectors at logical `lbn`, issued at `at`. Returns the
    /// host-visible completion and the data words, reconstructing from
    /// mirror or parity wherever a member is failed or persistently
    /// faulting.
    pub fn read(
        &mut self,
        lbn: u64,
        len: u64,
        at: SimTime,
    ) -> Result<(Completion, Vec<u64>), FleetError> {
        let mut data = Vec::with_capacity(len as usize);
        let done = self.read_timed(lbn, len, at, Some(&mut data))?;
        Ok((done, data))
    }

    /// The read behind [`Volume::read`] (which keeps the words) and
    /// [`Volume::service`] (which wants the timing only).
    fn read_timed(
        &mut self,
        lbn: u64,
        len: u64,
        at: SimTime,
        mut data: Option<&mut Vec<u64>>,
    ) -> Result<Completion, FleetError> {
        let chunks = self.layout.split(lbn, len)?;
        let mut acc = self.begin_access();
        for chunk in &chunks {
            self.read_chunk(&mut acc, chunk, at, data.as_deref_mut())?;
        }
        Ok(acc.finish(Request::read(lbn, len), at))
    }

    /// Writes `data` at logical `lbn`, issued at `at`, maintaining the
    /// redundancy invariant: mirrors write every healthy copy; healthy
    /// RAID-5 does the classic read-modify-write of data + parity;
    /// degraded RAID-5 reconstruct-writes through parity.
    pub fn write(&mut self, lbn: u64, data: &[u64], at: SimTime) -> Result<Completion, FleetError> {
        let len = data.len() as u64;
        let chunks = self.layout.split(lbn, len)?;
        let mut acc = self.begin_access();
        for chunk in &chunks {
            let from = (chunk.lstart - lbn) as usize;
            let words = &data[from..from + chunk.len as usize];
            self.write_chunk(&mut acc, chunk, words, at)?;
        }
        Ok(acc.finish(Request::write(lbn, len), at))
    }

    /// Writes one chunk. Two-phase in every mode: every member write of
    /// the chunk is issued first, and the data plane is committed only
    /// once all of them were accepted — a retry-exhausted member must
    /// never leave a half-updated stripe visible to later reads.
    fn write_chunk(
        &mut self,
        acc: &mut Access,
        chunk: &Chunk,
        words: &[u64],
        at: SimTime,
    ) -> Result<(), FleetError> {
        let Chunk {
            member: owner,
            pstart,
            ..
        } = *chunk;
        match self.layout.kind() {
            VolumeKind::Striped => {
                if !self.members[owner].healthy {
                    return Err(lost(owner));
                }
                self.write_member(acc, owner, pstart, words, at, "data")?;
                self.stores()[owner].write(pstart, words);
            }
            VolumeKind::Mirrored => {
                if !self.can_serve() {
                    return Err(lost(owner));
                }
                for m in 0..self.members.len() {
                    if self.members[m].healthy {
                        self.write_member(acc, m, pstart, words, at, "copy")?;
                    }
                }
                for m in 0..self.members.len() {
                    if self.members[m].healthy {
                        self.stores()[m].write(pstart, words);
                    }
                }
                if self.is_degraded() {
                    acc.took("degraded_mirror");
                }
            }
            VolumeKind::Raid5 => self.raid5_write_chunk(acc, chunk, words, at)?,
        }
        Ok(())
    }

    fn raid5_write_chunk(
        &mut self,
        acc: &mut Access,
        chunk: &Chunk,
        words: &[u64],
        at: SimTime,
    ) -> Result<(), FleetError> {
        let owner = chunk.member;
        let parity = self.layout.parity(chunk.round);
        let off = chunk.pstart - self.layout.member_extent(chunk.round, owner).start;
        let ppstart = self.layout.member_extent(chunk.round, parity).start + off;
        match (self.members[owner].healthy, self.members[parity].healthy) {
            (true, true) => {
                // Read-modify-write: read old data and old parity, then
                // write both with the XOR-updated parity.
                acc.took("rmw");
                let mut new_parity = words.to_vec();
                let r1 = self
                    .read_member(acc, owner, chunk.pstart, chunk.len, at, "data")
                    .map_err(|_| lost(owner))?;
                let r2 = self
                    .read_member(acc, parity, ppstart, chunk.len, at, "parity")
                    .map_err(|_| lost(parity))?;
                let stores = self.stores();
                stores[owner].xor_into(chunk.pstart, &mut new_parity);
                stores[parity].xor_into(ppstart, &mut new_parity);
                let reads_done = r1.max(r2);
                self.write_member(acc, owner, chunk.pstart, words, reads_done, "data")?;
                self.write_member(acc, parity, ppstart, &new_parity, reads_done, "parity")?;
                let stores = self.stores();
                stores[owner].write(chunk.pstart, words);
                stores[parity].write(ppstart, &new_parity);
            }
            (false, true) => {
                // Reconstruct-write: the new parity is the XOR of the new
                // data with every *surviving* data column; the dead
                // member's platters stay untouched.
                acc.took("reconstruct_write");
                let mut new_parity = words.to_vec();
                let reads_done = self
                    .xor_survivors(acc, chunk.round, off, &[owner, parity], at, &mut new_parity)
                    .map_err(|_| lost(owner))?;
                self.write_member(acc, parity, ppstart, &new_parity, reads_done, "parity")?;
                self.stores()[parity].write(ppstart, &new_parity);
                self.stats.degraded_writes += 1;
            }
            (true, false) => {
                // Parity member is dead: write the data, skip parity.
                acc.took("parity_skip");
                self.write_member(acc, owner, chunk.pstart, words, at, "data")?;
                self.stores()[owner].write(chunk.pstart, words);
                self.stats.degraded_writes += 1;
            }
            (false, false) => return Err(lost(owner)),
        }
        Ok(())
    }

    /// Services one logical request as the server sees it: reads return
    /// timing only (contents are checked elsewhere), writes synthesize
    /// deterministic payloads from an internal sequence number.
    pub fn service(&mut self, req: Request, at: SimTime) -> Result<Completion, FleetError> {
        match req.op {
            Op::Read => self.read_timed(req.lbn, u64::from(req.len), at, None),
            Op::Write => {
                self.write_seq += 1;
                let salt = self.fill_seed ^ self.write_seq.rotate_left(17);
                let words: Vec<u64> = (0..u64::from(req.len))
                    .map(|o| pattern_word(salt, req.lbn + o))
                    .collect();
                self.write(req.lbn, &words, at)
            }
        }
    }

    /// Exports the volume's counters plus each member's fault-layer
    /// statistics into `reg` under `fleet.*`.
    pub fn export_metrics(&self, reg: &Registry) {
        reg.add("fleet.members", self.members.len() as u64);
        reg.add("fleet.failed_members", self.failed_members().len() as u64);
        reg.add("fleet.member_cmds", self.stats.member_cmds);
        reg.add("fleet.degraded_reads", self.stats.degraded_reads);
        reg.add("fleet.degraded_writes", self.stats.degraded_writes);
        reg.add(
            "fleet.reconstructed_sectors",
            self.stats.reconstructed_sectors,
        );
        for (i, m) in self.members.iter().enumerate() {
            for (name, value) in m.disk.fault_stats().pairs() {
                reg.add(&format!("fleet.m{i}.{name}"), value);
            }
        }
    }
}

impl Backend for Volume {
    fn capacity_lbns(&self) -> u64 {
        self.layout.capacity()
    }

    /// # Panics
    ///
    /// Panics if the volume cannot serve a request — a failed RAID-0
    /// member or a double failure. Callers gate degraded service on
    /// [`Volume::can_serve`].
    #[expect(clippy::panic, reason = "the # Panics contract")]
    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        for &(req, at) in batch {
            let done = self
                .service(req, at)
                .unwrap_or_else(|e| panic!("volume cannot serve {req:?}: {e}"));
            out.push(done);
        }
    }

    /// Per-member mechanical occupancy, for windowed busy fractions.
    fn member_busy_ns(&self) -> Vec<u64> {
        self.members.iter().map(|m| m.disk.busy_ns()).collect()
    }
}
