//! The columnar codec behind the on-disk trace corpus.
//!
//! A corpus archives whole monitored runs so a *new* goal suite can be
//! re-evaluated over them later with zero simulation cost (the
//! requirements-change workflow: re-verify against recorded evidence,
//! don't re-simulate). This module is the payload codec only — framing,
//! CRCs, manifests, and recovery live in the harness crate's corpus
//! store, mirroring how the sweep-journal splits record payloads from
//! file durability.
//!
//! Layout decisions, all in service of bit-identical replay:
//!
//! * **column-per-signal** — a run's samples are stored one contiguous
//!   region per signal (the [`FrameTrace`] layout serialized), so the
//!   streaming reader can drop each signal's next sample straight into
//!   the matching lane-major [`FrameBatch`] row.
//! * **dictionary-encoded symbols** — [`Sym`]s are process-local interned
//!   ids, so the corpus stores each distinct text once in a [`SymDict`]
//!   and columns reference dictionary ids; the reader re-interns on its
//!   side of the process boundary.
//! * **delta/varint tick samples** — per column, the encoder picks the
//!   cheapest of seven encodings (empty, constant, bool bitmaps,
//!   zigzag-delta ints, XOR-delta `f64` bit patterns, delta'd dictionary
//!   ids, or tagged mixed values). Reals travel as bit patterns, never
//!   as decimal text, so `NaN`s, `-0.0`, and every ULP round-trip
//!   exactly.
//!
//! Encoding streams: a [`RunEncoder`] takes one observed frame per tick
//! into one [`ColumnEncoder`] per signal, so a live run is archived
//! without materializing its [`FrameTrace`]. Encoding a recorded trace
//! ([`encode_run`]) feeds the same encoders a whole column at a time.
//!
//! Decoders return `Option`: `None` means the bytes are not a valid
//! encoding (truncated, over budget, or inconsistent). They never
//! panic on hostile input and never allocate more than the input could
//! legitimately describe — the property the corpus fuzz wall pins.

use crate::frame_batch::FrameBatch;
use crate::frame_trace::FrameTrace;
use crate::signal::{Frame, SignalKind, SignalTable};
use crate::value::{Sym, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Budget on a single run's tick count: decoders reject lengths above
/// this before allocating. Far above any real workload (the mega grid
/// runs 5 000 ticks, the thesis grid 20 000), low enough that a hostile
/// length can't provoke a multi-gigabyte allocation.
pub const MAX_RUN_TICKS: u64 = 1 << 24;

/// Budget on a table's signal count, same rationale as
/// [`MAX_RUN_TICKS`].
pub const MAX_TABLE_SIGNALS: u64 = 1 << 16;

// --- varints -----------------------------------------------------------

/// Appends `x` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed value onto an unsigned one (small magnitudes of
/// either sign become small varints).
pub fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverts [`zigzag`].
pub fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// A bounds-checked forward reader over a byte slice. Every read
/// returns `None` past the end instead of panicking.
#[derive(Debug, Clone)]
struct Cur<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cur { bytes, at: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    #[inline]
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    #[inline]
    fn varint(&mut self) -> Option<u64> {
        let mut x: u64 = 0;
        for shift in 0..10 {
            let b = self.u8()?;
            // The tenth byte may only carry the final bit of a u64.
            if shift == 9 && b > 1 {
                return None;
            }
            x |= u64::from(b & 0x7f) << (shift * 7);
            if b & 0x80 == 0 {
                return Some(x);
            }
        }
        None
    }

    fn str_(&mut self) -> Option<&'a str> {
        let len = self.varint()?;
        let len = usize::try_from(len).ok()?;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Appends a length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// --- symbol dictionary -------------------------------------------------

/// The corpus-global symbol dictionary: each distinct [`Sym`] text is
/// stored once and columns reference it by a dense id assigned in
/// first-appearance order. The writer grows it while encoding runs and
/// flushes new entries ahead of the run that introduced them; the
/// reader appends decoded blocks in file order, so by the time a run's
/// columns are decoded every id they reference is already present.
#[derive(Debug, Default, Clone)]
pub struct SymDict {
    texts: Vec<String>,
    syms: Vec<Sym>,
    ids: HashMap<String, u32>,
}

impl SymDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        SymDict::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the dictionary holds no entries.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The id of `text`, assigning the next id on first sight (writer
    /// side).
    pub fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.texts.len() as u32;
        self.ids.insert(text.to_owned(), id);
        self.texts.push(text.to_owned());
        self.syms.push(Sym::new(text));
        id
    }

    /// Appends a decoded dictionary entry (reader side), re-interning
    /// the text into this process's symbol table.
    pub fn push(&mut self, text: String) {
        let id = self.texts.len() as u32;
        self.syms.push(Sym::new(&text));
        self.ids.insert(text.clone(), id);
        self.texts.push(text);
    }

    /// The re-interned [`Sym`] for a dictionary id.
    pub fn sym(&self, id: u64) -> Option<Sym> {
        self.syms.get(usize::try_from(id).ok()?).copied()
    }

    /// The text for a dictionary id.
    pub fn text(&self, id: u64) -> Option<&str> {
        self.texts
            .get(usize::try_from(id).ok()?)
            .map(String::as_str)
    }

    /// The entries from index `start` on — what the writer flushes as a
    /// dictionary block before appending the run that introduced them.
    pub fn texts_from(&self, start: usize) -> &[String] {
        &self.texts[start.min(self.texts.len())..]
    }
}

/// Encodes a dictionary block: the texts appended since the writer's
/// last flush.
pub fn encode_sym_block(texts: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, texts.len() as u64);
    for t in texts {
        put_str(&mut out, t);
    }
    out
}

/// Decodes a dictionary block, or `None` if the bytes are not exactly
/// one well-formed block.
pub fn decode_sym_block(bytes: &[u8]) -> Option<Vec<String>> {
    let mut cur = Cur::new(bytes);
    let count = cur.varint()?;
    // Every entry costs at least one length byte.
    if count > bytes.len() as u64 {
        return None;
    }
    let mut texts = Vec::with_capacity(count as usize);
    for _ in 0..count {
        texts.push(cur.str_()?.to_owned());
    }
    cur.done().then_some(texts)
}

// --- signal tables -----------------------------------------------------

fn kind_code(kind: SignalKind) -> u8 {
    match kind {
        SignalKind::Bool => 0,
        SignalKind::Int => 1,
        SignalKind::Real => 2,
        SignalKind::Sym => 3,
    }
}

fn kind_from(code: u8) -> Option<SignalKind> {
    match code {
        0 => Some(SignalKind::Bool),
        1 => Some(SignalKind::Int),
        2 => Some(SignalKind::Real),
        3 => Some(SignalKind::Sym),
        _ => None,
    }
}

/// Encodes a signal table: the namespace archived runs are indexed by.
pub fn encode_table(table: &SignalTable) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, table.len() as u64);
    for id in table.ids() {
        out.push(kind_code(table.kind(id)));
        put_str(&mut out, table.name(id));
    }
    out
}

/// Decodes a signal table block into a fresh (reader-side) table, or
/// `None` if the bytes are not exactly one well-formed table.
pub fn decode_table(bytes: &[u8]) -> Option<Arc<SignalTable>> {
    let mut cur = Cur::new(bytes);
    let count = cur.varint()?;
    if count > MAX_TABLE_SIGNALS {
        return None;
    }
    let mut b = SignalTable::builder();
    let mut seen = 0u64;
    while seen < count {
        let kind = kind_from(cur.u8()?)?;
        let name = cur.str_()?;
        b.signal(name, kind);
        seen += 1;
    }
    cur.done().then(|| b.finish())
}

// --- run metadata ------------------------------------------------------

/// The per-run metadata stored ahead of a run's columns — everything
/// the replay path needs to rebuild a run-report-shaped record without
/// the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Which archived signal table the run's columns are indexed by
    /// (tables are numbered in file-appearance order).
    pub table_ref: u32,
    /// The substrate family name (e.g. `"vehicle"`), which selects the
    /// goal-suite builder at replay time.
    pub substrate: String,
    /// The run's human-readable label (e.g. `"scenario-1/thesis (all)"`).
    pub label: String,
    /// Tick period, milliseconds.
    pub dt_millis: u64,
    /// Number of recorded ticks.
    pub ticks: u64,
    /// Whether the live run terminated before its scheduled end.
    pub terminated_early: bool,
    /// The live run's terminal event, if any.
    pub terminal_event: Option<String>,
}

fn put_meta(out: &mut Vec<u8>, meta: &RunMeta) {
    put_varint(out, u64::from(meta.table_ref));
    put_str(out, &meta.substrate);
    put_str(out, &meta.label);
    put_varint(out, meta.dt_millis);
    put_varint(out, meta.ticks);
    out.push(u8::from(meta.terminated_early));
    match &meta.terminal_event {
        Some(ev) => {
            out.push(1);
            put_str(out, ev);
        }
        None => out.push(0),
    }
}

fn read_meta(cur: &mut Cur<'_>) -> Option<RunMeta> {
    let table_ref = u32::try_from(cur.varint()?).ok()?;
    let substrate = cur.str_()?.to_owned();
    let label = cur.str_()?.to_owned();
    let dt_millis = cur.varint()?;
    if dt_millis == 0 {
        return None;
    }
    let ticks = cur.varint()?;
    if ticks > MAX_RUN_TICKS {
        return None;
    }
    // A run's last tick must sit at a representable millisecond time:
    // replay reports it as `(ticks - 1) × dt_millis`.
    ticks.saturating_sub(1).checked_mul(dt_millis)?;
    let terminated_early = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let terminal_event = match cur.u8()? {
        0 => None,
        1 => Some(cur.str_()?.to_owned()),
        _ => return None,
    };
    Some(RunMeta {
        table_ref,
        substrate,
        label,
        dt_millis,
        ticks,
        terminated_early,
        terminal_event,
    })
}

/// Decodes just a run's metadata (cheap: no column work), or `None` if
/// the prefix is malformed.
pub fn decode_run_meta(bytes: &[u8]) -> Option<RunMeta> {
    read_meta(&mut Cur::new(bytes))
}

// --- column encodings --------------------------------------------------

const TAG_COL_EMPTY: u8 = 0;
const TAG_COL_CONST: u8 = 1;
const TAG_COL_BOOL: u8 = 2;
const TAG_COL_INT: u8 = 3;
const TAG_COL_REAL: u8 = 4;
const TAG_COL_SYM: u8 = 5;
const TAG_COL_MIXED: u8 = 6;

const VAL_BOOL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_REAL: u8 = 2;
const VAL_SYM: u8 = 3;

/// Bitwise value equality: `f64`s compare as bit patterns, so `NaN`
/// equals itself and `0.0` differs from `-0.0` — the equality the
/// round-trip goldens need.
fn bits_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Sym(x), Value::Sym(y)) => x == y,
        _ => false,
    }
}

fn put_value(out: &mut Vec<u8>, v: Value, dict: &mut SymDict) {
    match v {
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(b));
        }
        Value::Int(i) => {
            out.push(VAL_INT);
            put_varint(out, zigzag(i));
        }
        Value::Real(r) => {
            out.push(VAL_REAL);
            out.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        Value::Sym(s) => {
            out.push(VAL_SYM);
            put_varint(out, u64::from(dict.intern(s.as_str())));
        }
    }
}

#[inline]
fn read_value(cur: &mut Cur<'_>, dict: &SymDict) -> Option<Value> {
    match cur.u8()? {
        VAL_BOOL => match cur.u8()? {
            0 => Some(Value::Bool(false)),
            1 => Some(Value::Bool(true)),
            _ => None,
        },
        VAL_INT => Some(Value::Int(unzigzag(cur.varint()?))),
        VAL_REAL => {
            let bytes: [u8; 8] = cur.take(8)?.try_into().ok()?;
            Some(Value::Real(f64::from_bits(u64::from_le_bytes(bytes))))
        }
        VAL_SYM => Some(Value::Sym(dict.sym(cur.varint()?)?)),
        _ => None,
    }
}

#[inline]
fn bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] >> (i % 8) & 1 == 1
}

/// Appends bit `i` to a little-endian packed bitmap that holds bits
/// `0..i`.
#[inline]
fn push_bit(bits: &mut Vec<u8>, i: usize, on: bool) {
    if i.is_multiple_of(8) {
        bits.push(0);
    }
    if on {
        *bits.last_mut().expect("a byte holds bit i") |= 1 << (i % 8);
    }
}

/// Appends a packed bitmap of `n` set bits.
fn push_ones(out: &mut Vec<u8>, n: usize) {
    out.resize(out.len() + n / 8, 0xff);
    if !n.is_multiple_of(8) {
        out.push((1u8 << (n % 8)) - 1);
    }
}

/// Whether two samples record the same thing: both absent, or both
/// present and [bitwise equal](bits_eq).
#[inline]
fn same_sample(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => bits_eq(x, y),
        _ => false,
    }
}

/// Interns `s`, skipping the dictionary lookup when it repeats the
/// previous symbol (`memo`) — symbol columns hold long runs of one
/// command.
fn intern_memo(dict: &mut SymDict, s: Sym, memo: &mut Option<(Sym, u32)>) -> u32 {
    match *memo {
        Some((last, id)) if last == s => id,
        _ => {
            let id = dict.intern(s.as_str());
            *memo = Some((s, id));
            id
        }
    }
}

/// The sample stream of a column that is neither empty nor constant:
/// the bytes after its presence bitmap, except that symbols stay raw
/// [`Sym`]s until the commit interns them.
#[derive(Debug, Clone)]
enum Payload {
    /// Bit-packed values, `n` so far.
    Bool { bits: Vec<u8>, n: usize },
    /// Zigzag-delta varints.
    Int { bytes: Vec<u8>, prev: i64 },
    /// XOR-delta varints of the `f64` bit patterns.
    Real { bytes: Vec<u8>, prev: u64 },
    /// Raw symbols, in tick order.
    Sym(Vec<Sym>),
    /// Values of more than one kind, in tick order.
    Mixed(Vec<Value>),
}

impl Payload {
    /// An empty stream for values of `v`'s kind.
    fn of_kind(v: Value) -> Payload {
        match v {
            Value::Bool(_) => Payload::Bool {
                bits: Vec::new(),
                n: 0,
            },
            Value::Int(_) => Payload::Int {
                bytes: Vec::new(),
                prev: 0,
            },
            Value::Real(_) => Payload::Real {
                bytes: Vec::new(),
                prev: 0,
            },
            Value::Sym(_) => Payload::Sym(Vec::new()),
        }
    }

    #[inline]
    fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Payload::Bool { bits, n }, Value::Bool(b)) => {
                push_bit(bits, *n, b);
                *n += 1;
            }
            (Payload::Int { bytes, prev }, Value::Int(i)) => {
                put_varint(bytes, zigzag(i.wrapping_sub(*prev)));
                *prev = i;
            }
            (Payload::Real { bytes, prev }, Value::Real(r)) => {
                put_varint(bytes, r.to_bits() ^ *prev);
                *prev = r.to_bits();
            }
            (Payload::Sym(syms), Value::Sym(s)) => syms.push(s),
            (Payload::Mixed(values), v) => values.push(v),
            (_, v) => self.become_mixed(v),
        }
    }

    /// The first value of a second kind: decodes the stream so far
    /// and continues as a mixed column.
    #[cold]
    fn become_mixed(&mut self, v: Value) {
        let mut values: Vec<Value> = match self {
            Payload::Bool { bits, n } => (0..*n).map(|i| Value::Bool(bit(bits, i))).collect(),
            Payload::Int { bytes, .. } => {
                let mut cur = Cur::new(bytes);
                let mut prev = 0i64;
                std::iter::from_fn(|| {
                    prev = prev.wrapping_add(unzigzag(cur.varint()?));
                    Some(Value::Int(prev))
                })
                .collect()
            }
            Payload::Real { bytes, .. } => {
                let mut cur = Cur::new(bytes);
                let mut prev = 0u64;
                std::iter::from_fn(|| {
                    prev ^= cur.varint()?;
                    Some(Value::Real(f64::from_bits(prev)))
                })
                .collect()
            }
            Payload::Sym(syms) => syms.iter().map(|&s| Value::Sym(s)).collect(),
            Payload::Mixed(values) => std::mem::take(values),
        };
        values.push(v);
        *self = Payload::Mixed(values);
    }

    fn tag(&self) -> u8 {
        match self {
            Payload::Bool { .. } => TAG_COL_BOOL,
            Payload::Int { .. } => TAG_COL_INT,
            Payload::Real { .. } => TAG_COL_REAL,
            Payload::Sym(_) => TAG_COL_SYM,
            Payload::Mixed(_) => TAG_COL_MIXED,
        }
    }

    /// Writes the stream, interning symbols in tick order.
    fn put(&self, out: &mut Vec<u8>, dict: &mut SymDict) {
        match self {
            Payload::Bool { bits, .. } => out.extend_from_slice(bits),
            Payload::Int { bytes, .. } | Payload::Real { bytes, .. } => {
                out.extend_from_slice(bytes)
            }
            Payload::Sym(syms) => {
                let (mut prev, mut memo) = (0i64, None);
                for &s in syms {
                    let id = i64::from(intern_memo(dict, s, &mut memo));
                    put_varint(out, zigzag(id.wrapping_sub(prev)));
                    prev = id;
                }
            }
            Payload::Mixed(values) => {
                for &v in values {
                    put_value(out, v, dict);
                }
            }
        }
    }
}

/// A column past its constant prefix.
#[derive(Debug, Clone)]
struct OpenColumn {
    /// Presence bits of every sample so far, or `None` while every
    /// sample has been present (the bitmap is then all ones and is
    /// only written out at the commit).
    presence: Option<Vec<u8>>,
    payload: Payload,
}

impl OpenColumn {
    /// Appends sample `t`.
    #[inline]
    fn push(&mut self, t: usize, sample: Option<Value>) {
        match sample {
            Some(v) => {
                if let Some(bits) = &mut self.presence {
                    push_bit(bits, t, true);
                }
                self.payload.push(v);
            }
            None => {
                let bits = self.presence.get_or_insert_with(|| {
                    let mut bits = Vec::new();
                    push_ones(&mut bits, t);
                    bits
                });
                push_bit(bits, t, false);
            }
        }
    }
}

/// The streaming encoder of one signal column: takes a column one
/// sample (or one slice) at a time and holds only its encoded form.
///
/// The encoding is the cheapest applicable one for the whole column:
/// empty (no sample present), constant (every sample present and
/// bitwise equal, `f64`s compared as bit patterns), else a presence
/// bitmap followed by bool bits, zigzag-delta ints, XOR-delta reals,
/// delta'd dictionary ids, or tagged mixed values, by the kinds of the
/// present samples. Two lazy
/// states keep common columns cheap: while the column still equals its
/// first sample it costs one compare per sample, and while every
/// sample is present no bitmap bit is written. Symbols are interned
/// only by [`encode_into`](ColumnEncoder::encode_into), so encoding a
/// run's columns in table order assigns the same dictionary ids
/// however the samples arrived.
#[derive(Debug, Clone, Default)]
pub struct ColumnEncoder {
    len: usize,
    /// Sample 0; while `open` is `None` every sample equals it.
    first: Option<Value>,
    open: Option<OpenColumn>,
}

impl ColumnEncoder {
    /// An encoder holding no samples.
    pub fn new() -> Self {
        ColumnEncoder::default()
    }

    /// Appends the next sample.
    #[inline]
    pub fn push(&mut self, sample: Option<Value>) {
        if let Some(open) = &mut self.open {
            open.push(self.len, sample);
        } else if self.len == 0 {
            self.first = sample;
        } else if !same_sample(sample, self.first) {
            self.open_with(sample);
        }
        self.len += 1;
    }

    /// Appends a slice of samples — the block form of
    /// [`push`](ColumnEncoder::push): a constant prefix is skipped with
    /// one scan, the rest runs without per-sample state checks.
    pub fn extend(&mut self, samples: &[Option<Value>]) {
        let mut rest = samples;
        if self.open.is_none() {
            let Some(&head) = rest.first() else { return };
            if self.len == 0 {
                self.first = head;
            }
            let run = rest
                .iter()
                .position(|&s| !same_sample(s, self.first))
                .unwrap_or(rest.len());
            self.len += run;
            rest = &rest[run..];
            let Some((&head, tail)) = rest.split_first() else {
                return;
            };
            self.open_with(head);
            self.len += 1;
            rest = tail;
        }
        let open = self.open.as_mut().expect("opened above");
        for (t, &s) in (self.len..).zip(rest) {
            open.push(t, s);
        }
        self.len += rest.len();
    }

    /// Ends the constant prefix at sample `self.len`, which differs
    /// from it: replays the prefix into an open column, then appends
    /// `sample`.
    #[cold]
    fn open_with(&mut self, sample: Option<Value>) {
        let t = self.len;
        let mut open = match self.first {
            None => OpenColumn {
                presence: Some(vec![0; t.div_ceil(8)]),
                payload: Payload::of_kind(sample.expect("differs from an absent prefix")),
            },
            Some(v) => {
                let mut payload = Payload::of_kind(v);
                for _ in 0..t {
                    payload.push(v);
                }
                OpenColumn {
                    presence: None,
                    payload,
                }
            }
        };
        open.push(t, sample);
        self.open = Some(open);
    }

    /// Appends the column's encoding to `out`, interning its symbols
    /// into `dict` in sample order.
    pub fn encode_into(&self, out: &mut Vec<u8>, dict: &mut SymDict) {
        let Some(open) = &self.open else {
            match self.first {
                None => out.push(TAG_COL_EMPTY),
                Some(v) => {
                    out.push(TAG_COL_CONST);
                    put_value(out, v, dict);
                }
            }
            return;
        };
        out.push(open.payload.tag());
        match &open.presence {
            Some(bits) => out.extend_from_slice(bits),
            None => push_ones(out, self.len),
        }
        open.payload.put(out, dict);
    }
}

/// Encodes one signal column (`len` tick samples) with the cheapest
/// applicable encoding, interning any symbols into `dict` — a
/// [`ColumnEncoder`] fed the whole slice.
pub fn encode_column(col: &[Option<Value>], dict: &mut SymDict) -> Vec<u8> {
    let mut enc = ColumnEncoder::new();
    enc.extend(col);
    let mut out = Vec::new();
    enc.encode_into(&mut out, dict);
    out
}

enum ColMode<'a> {
    Empty,
    Const(Value),
    Bool {
        presence: &'a [u8],
        values: &'a [u8],
        seen: usize,
    },
    Int {
        presence: &'a [u8],
        data: Cur<'a>,
        prev: i64,
    },
    Real {
        presence: &'a [u8],
        data: Cur<'a>,
        prev: u64,
    },
    Sym {
        presence: &'a [u8],
        data: Cur<'a>,
        prev: i64,
    },
    Mixed {
        presence: &'a [u8],
        data: Cur<'a>,
    },
}

/// A streaming decoder over one encoded signal column: yields the next
/// tick's sample per call, holding only delta state — no materialized
/// `Vec` of the whole column.
pub struct ColumnCursor<'a> {
    mode: ColMode<'a>,
    tick: usize,
    len: usize,
}

impl<'a> ColumnCursor<'a> {
    /// Opens a column body (as produced by [`encode_column`]) holding
    /// `len` samples, or `None` if the prefix is malformed. The
    /// dictionary is needed up front because constant symbol columns
    /// decode their value eagerly.
    pub fn new(body: &'a [u8], len: usize, dict: &SymDict) -> Option<Self> {
        let mut cur = Cur::new(body);
        let tag = cur.u8()?;
        let presence_bytes = len.div_ceil(8);
        let mode = match tag {
            TAG_COL_EMPTY => {
                if !cur.done() {
                    return None;
                }
                ColMode::Empty
            }
            TAG_COL_CONST => {
                if len == 0 {
                    return None;
                }
                let v = read_value(&mut cur, dict)?;
                if !cur.done() {
                    return None;
                }
                ColMode::Const(v)
            }
            TAG_COL_BOOL => {
                let presence = cur.take(presence_bytes)?;
                let n_present: usize = presence.iter().map(|b| b.count_ones() as usize).sum();
                let values = cur.take(n_present.div_ceil(8))?;
                if !cur.done() {
                    return None;
                }
                ColMode::Bool {
                    presence,
                    values,
                    seen: 0,
                }
            }
            TAG_COL_INT => ColMode::Int {
                presence: cur.take(presence_bytes)?,
                data: cur,
                prev: 0,
            },
            TAG_COL_REAL => ColMode::Real {
                presence: cur.take(presence_bytes)?,
                data: cur,
                prev: 0,
            },
            TAG_COL_SYM => ColMode::Sym {
                presence: cur.take(presence_bytes)?,
                data: cur,
                prev: 0,
            },
            TAG_COL_MIXED => ColMode::Mixed {
                presence: cur.take(presence_bytes)?,
                data: cur,
            },
            _ => return None,
        };
        Some(ColumnCursor { mode, tick: 0, len })
    }

    /// Whether the column yields the same sample every tick (empty or
    /// constant encoding) — replay loops may write it once per lane
    /// instead of once per tick.
    pub fn is_static(&self) -> bool {
        matches!(self.mode, ColMode::Empty | ColMode::Const(_))
    }

    /// The next tick's sample (`Some(None)` = recorded-absent), or
    /// `None` when exhausted or the underlying bytes are malformed.
    #[inline]
    pub fn next_sample(&mut self, dict: &SymDict) -> Option<Option<Value>> {
        if self.tick >= self.len {
            return None;
        }
        let t = self.tick;
        self.tick += 1;
        match &mut self.mode {
            ColMode::Empty => Some(None),
            ColMode::Const(v) => Some(Some(*v)),
            ColMode::Bool {
                presence,
                values,
                seen,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                let b = bit(values, *seen);
                *seen += 1;
                Some(Some(Value::Bool(b)))
            }
            ColMode::Int {
                presence,
                data,
                prev,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                *prev = prev.wrapping_add(unzigzag(data.varint()?));
                Some(Some(Value::Int(*prev)))
            }
            ColMode::Real {
                presence,
                data,
                prev,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                *prev ^= data.varint()?;
                Some(Some(Value::Real(f64::from_bits(*prev))))
            }
            ColMode::Sym {
                presence,
                data,
                prev,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                *prev = prev.wrapping_add(unzigzag(data.varint()?));
                let id = u64::try_from(*prev).ok()?;
                Some(Some(Value::Sym(dict.sym(id)?)))
            }
            ColMode::Mixed { presence, data } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                Some(Some(read_value(data, dict)?))
            }
        }
    }

    /// Whether every sample was yielded and every encoded byte was
    /// consumed — the strict full-decode check.
    pub fn fully_consumed(&self) -> bool {
        match &self.mode {
            // Static columns carry no per-tick bytes, so a replay loop
            // that wrote them once per lane has still consumed them.
            ColMode::Empty | ColMode::Const(_) => true,
            ColMode::Bool { .. } => self.tick == self.len,
            ColMode::Int { data, .. }
            | ColMode::Real { data, .. }
            | ColMode::Sym { data, .. }
            | ColMode::Mixed { data, .. } => self.tick == self.len && data.done(),
        }
    }
}

// --- whole runs --------------------------------------------------------

/// The streaming encoder of one run: one [`ColumnEncoder`] per signal
/// of the run's table, fed one observed frame per tick, so archiving a
/// run never materializes its [`FrameTrace`].
#[derive(Debug, Clone)]
pub struct RunEncoder {
    table: Arc<SignalTable>,
    cols: Vec<ColumnEncoder>,
    len: usize,
}

impl RunEncoder {
    /// An encoder for runs over `table`, holding no ticks.
    pub fn new(table: &Arc<SignalTable>) -> Self {
        RunEncoder {
            table: Arc::clone(table),
            cols: vec![ColumnEncoder::new(); table.len()],
            len: 0,
        }
    }

    /// An encoder holding a recorded trace, fed column by column.
    pub fn from_trace(trace: &FrameTrace) -> Self {
        let mut enc = RunEncoder::new(trace.table());
        for (id, col) in trace.table().ids().zip(&mut enc.cols) {
            col.extend(trace.column(id));
        }
        enc.len = trace.len();
        enc
    }

    /// The table the run's frames are indexed by.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// Ticks taken so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tick was taken yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one tick's observed frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame` indexes a different table.
    #[inline]
    pub fn push(&mut self, frame: &Frame) {
        assert!(
            Arc::ptr_eq(frame.table(), &self.table),
            "frame and run encoder must share one signal table"
        );
        for (col, &slot) in self.cols.iter_mut().zip(&frame.slots) {
            col.push(slot);
        }
        self.len += 1;
    }

    /// Encodes the run: metadata, then each signal column in table
    /// order, each prefixed by its byte length so readers can slice
    /// columns without scanning them. New symbols are interned into
    /// `dict` column by column; the caller flushes
    /// `dict.texts_from(watermark)` as a dictionary block *before* this
    /// run's record.
    pub fn encode(&self, meta: &RunMeta, dict: &mut SymDict) -> Vec<u8> {
        debug_assert_eq!(meta.ticks, self.len as u64);
        let mut out = Vec::new();
        put_meta(&mut out, meta);
        put_varint(&mut out, self.cols.len() as u64);
        let mut body = Vec::new();
        for col in &self.cols {
            body.clear();
            col.encode_into(&mut body, dict);
            put_varint(&mut out, body.len() as u64);
            out.extend_from_slice(&body);
        }
        out
    }
}

/// Encodes one recorded run — [`RunEncoder::encode`] over the trace.
pub fn encode_run(trace: &FrameTrace, meta: &RunMeta, dict: &mut SymDict) -> Vec<u8> {
    debug_assert_eq!(meta.dt_millis, trace.tick_millis());
    RunEncoder::from_trace(trace).encode(meta, dict)
}

/// A streaming decoder over one encoded run: per tick, writes every
/// signal's sample directly into one lane of a lane-major
/// [`FrameBatch`] slab — the zero-materialization replay path. Holds
/// per-column cursors borrowing the corpus bytes; no column is ever
/// expanded into a `Vec`.
pub struct RunDecoder<'a> {
    cols: Vec<ColumnCursor<'a>>,
    /// Indices of the non-static columns — the only ones that need a
    /// slab write after the lane's first tick (static columns keep
    /// their tick-0 slot for the whole run).
    dynamic: Vec<u32>,
    len: usize,
    tick: usize,
}

impl<'a> RunDecoder<'a> {
    /// Opens a run payload (as produced by [`encode_run`]), checking
    /// the column count against `table`, or `None` if malformed.
    pub fn new(
        bytes: &'a [u8],
        table: &SignalTable,
        dict: &SymDict,
    ) -> Option<(RunMeta, RunDecoder<'a>)> {
        let mut cur = Cur::new(bytes);
        let meta = read_meta(&mut cur)?;
        let ncols = cur.varint()?;
        if ncols != table.len() as u64 {
            return None;
        }
        let len = usize::try_from(meta.ticks).ok()?;
        let mut cols = Vec::with_capacity(table.len());
        for _ in 0..table.len() {
            let body_len = usize::try_from(cur.varint()?).ok()?;
            cols.push(ColumnCursor::new(cur.take(body_len)?, len, dict)?);
        }
        if !cur.done() {
            return None;
        }
        let dynamic = cols
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_static())
            .map(|(i, _)| i as u32)
            .collect();
        Some((
            meta,
            RunDecoder {
                cols,
                dynamic,
                len,
                tick: 0,
            },
        ))
    }

    /// Number of ticks in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no ticks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ticks already decoded.
    pub fn ticks_decoded(&self) -> usize {
        self.tick
    }

    /// Decodes the next tick into `lane` of `slab`, overwriting every
    /// signal's slot (recorded-absent samples unset the slot, so no
    /// stale neighbour data survives). The first tick writes every
    /// column; later ticks only rewrite the non-static ones — the
    /// lane's static slots already hold their run-constant samples.
    /// Returns `None` when the run is exhausted or the bytes are
    /// malformed.
    #[inline]
    pub fn write_tick(&mut self, slab: &mut FrameBatch, lane: usize, dict: &SymDict) -> Option<()> {
        if self.tick >= self.len {
            return None;
        }
        let lanes = slab.lanes();
        debug_assert!(lane < lanes, "lane out of range");
        debug_assert_eq!(slab.table().len(), self.cols.len());
        if self.tick == 0 {
            for (sig, col) in self.cols.iter_mut().enumerate() {
                slab.slots[sig * lanes + lane] = col.next_sample(dict)?;
            }
        } else {
            for &sig in &self.dynamic {
                let sig = sig as usize;
                slab.slots[sig * lanes + lane] = self.cols[sig].next_sample(dict)?;
            }
        }
        self.tick += 1;
        Some(())
    }

    /// Decodes the next tick into a full-column sink — used by the
    /// strict whole-trace decode below.
    fn write_tick_columns(
        &mut self,
        columns: &mut [Vec<Option<Value>>],
        dict: &SymDict,
    ) -> Option<()> {
        for (col, sink) in self.cols.iter_mut().zip(columns.iter_mut()) {
            sink.push(col.next_sample(dict)?);
        }
        self.tick += 1;
        Some(())
    }

    /// Whether every tick and every encoded byte was consumed.
    pub fn fully_consumed(&self) -> bool {
        self.tick == self.len && self.cols.iter().all(ColumnCursor::fully_consumed)
    }
}

/// Strictly decodes a whole run back into a [`FrameTrace`] over
/// `table` (the reader-side table for the run's `table_ref`), or
/// `None` if the bytes are not exactly one well-formed run. This is
/// the scalar-replay and test path; batched replay streams through
/// [`RunDecoder`] instead.
pub fn decode_run_trace(
    bytes: &[u8],
    table: &Arc<SignalTable>,
    dict: &SymDict,
) -> Option<(RunMeta, FrameTrace)> {
    let (meta, mut dec) = RunDecoder::new(bytes, table, dict)?;
    let len = dec.len();
    let mut columns: Vec<Vec<Option<Value>>> = vec![Vec::with_capacity(len); table.len()];
    for _ in 0..len {
        dec.write_tick_columns(&mut columns, dict)?;
    }
    if !dec.fully_consumed() {
        return None;
    }
    Some((
        meta.clone(),
        FrameTrace::from_columns(table, meta.dt_millis, len, columns),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        b.bool("p");
        b.int("n");
        b.real("x");
        b.sym("cmd");
        b.finish()
    }

    fn meta(ticks: u64) -> RunMeta {
        RunMeta {
            table_ref: 0,
            substrate: "vehicle".into(),
            label: "scenario-1/none".into(),
            dt_millis: 1,
            ticks,
            terminated_early: false,
            terminal_event: None,
        }
    }

    /// The batch column encoder the streaming [`ColumnEncoder`] must
    /// reproduce byte for byte: a verbatim copy of the whole-slice
    /// definition, passes over the finished column.
    fn batch_encode_column(col: &[Option<Value>], dict: &mut SymDict) -> Vec<u8> {
        fn push_presence_bitmap(out: &mut Vec<u8>, col: &[Option<Value>]) {
            let mut byte = 0u8;
            for (i, slot) in col.iter().enumerate() {
                if slot.is_some() {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if !col.len().is_multiple_of(8) {
                out.push(byte);
            }
        }
        let mut out = Vec::new();
        let n_present = col.iter().filter(|s| s.is_some()).count();
        if n_present == 0 {
            out.push(TAG_COL_EMPTY);
            return out;
        }
        if n_present == col.len() {
            let first = col[0].expect("all samples present");
            if col.iter().all(|s| bits_eq(s.expect("present"), first)) {
                out.push(TAG_COL_CONST);
                put_value(&mut out, first, dict);
                return out;
            }
        }
        let present = col.iter().filter_map(|s| *s);
        let (mut all_bool, mut all_int, mut all_real, mut all_sym) = (true, true, true, true);
        for v in present.clone() {
            match v {
                Value::Bool(_) => (all_int, all_real, all_sym) = (false, false, false),
                Value::Int(_) => (all_bool, all_real, all_sym) = (false, false, false),
                Value::Real(_) => (all_bool, all_int, all_sym) = (false, false, false),
                Value::Sym(_) => (all_bool, all_int, all_real) = (false, false, false),
            }
        }
        if all_bool {
            out.push(TAG_COL_BOOL);
            push_presence_bitmap(&mut out, col);
            let mut byte = 0u8;
            let mut n = 0usize;
            for v in present {
                if matches!(v, Value::Bool(true)) {
                    byte |= 1 << (n % 8);
                }
                n += 1;
                if n.is_multiple_of(8) {
                    out.push(byte);
                    byte = 0;
                }
            }
            if !n.is_multiple_of(8) {
                out.push(byte);
            }
        } else if all_int {
            out.push(TAG_COL_INT);
            push_presence_bitmap(&mut out, col);
            let mut prev = 0i64;
            for v in present {
                if let Value::Int(i) = v {
                    put_varint(&mut out, zigzag(i.wrapping_sub(prev)));
                    prev = i;
                }
            }
        } else if all_real {
            out.push(TAG_COL_REAL);
            push_presence_bitmap(&mut out, col);
            let mut prev = 0u64;
            for v in present {
                if let Value::Real(r) = v {
                    put_varint(&mut out, r.to_bits() ^ prev);
                    prev = r.to_bits();
                }
            }
        } else if all_sym {
            out.push(TAG_COL_SYM);
            push_presence_bitmap(&mut out, col);
            let mut prev = 0i64;
            for v in present {
                if let Value::Sym(s) = v {
                    let id = i64::from(dict.intern(s.as_str()));
                    put_varint(&mut out, zigzag(id.wrapping_sub(prev)));
                    prev = id;
                }
            }
        } else {
            out.push(TAG_COL_MIXED);
            push_presence_bitmap(&mut out, col);
            for v in present {
                put_value(&mut out, v, dict);
            }
        }
        out
    }

    /// A splitmix64 stream for the encoder equivalence cases.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const KINDS: [SignalKind; 4] = [
        SignalKind::Bool,
        SignalKind::Int,
        SignalKind::Real,
        SignalKind::Sym,
    ];

    /// A value of `kind` from a small alphabet, so runs of equal
    /// samples and repeated symbols are common. Reals include a NaN
    /// payload, both zeros and an infinity; ints include the extremes.
    fn value(kind: SignalKind, mix: &mut Mix) -> Value {
        const REALS: [f64; 7] = [0.0, -0.0, 1.5, -2.25, f64::INFINITY, 1e300, 3.0];
        const INTS: [i64; 6] = [0, 1, -1, 7, i64::MIN, i64::MAX];
        const SYMS: [&str; 4] = ["enc-go", "enc-hold", "enc-stop", "enc-idle"];
        match kind {
            SignalKind::Bool => Value::Bool(mix.below(2) == 1),
            SignalKind::Int => Value::Int(INTS[mix.below(INTS.len() as u64) as usize]),
            SignalKind::Real => match mix.below(8) {
                7 => Value::Real(f64::from_bits(0x7ff8_dead_beef_0001)),
                i => Value::Real(REALS[i as usize]),
            },
            SignalKind::Sym => Value::sym(SYMS[mix.below(SYMS.len() as u64) as usize]),
        }
    }

    /// Encodes `cols` (in order, one shared dictionary) three ways —
    /// the batch copy, the streaming encoder one sample at a time, and
    /// the streaming encoder fed slices split at `split` — and asserts
    /// the bytes and dictionaries agree.
    fn assert_encoders_agree(cols: &[Vec<Option<Value>>], split: usize) {
        let (mut batch_dict, mut push_dict, mut block_dict) =
            (SymDict::new(), SymDict::new(), SymDict::new());
        for (c, col) in cols.iter().enumerate() {
            let batch = batch_encode_column(col, &mut batch_dict);
            let mut pushed = ColumnEncoder::new();
            for &s in col {
                pushed.push(s);
            }
            let mut blocked = ColumnEncoder::new();
            let at = split.min(col.len());
            blocked.extend(&col[..at]);
            blocked.extend(&[]);
            blocked.extend(&col[at..]);
            assert_eq!(pushed.len, col.len());
            assert_eq!(blocked.len, col.len());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            pushed.encode_into(&mut a, &mut push_dict);
            blocked.encode_into(&mut b, &mut block_dict);
            assert_eq!(a, batch, "column {c} pushed: {col:?}");
            assert_eq!(b, batch, "column {c} split at {at}: {col:?}");
            assert_eq!(encode_column(col, &mut SymDict::new()).len(), batch.len());
        }
        assert_eq!(push_dict.texts_from(0), batch_dict.texts_from(0));
        assert_eq!(block_dict.texts_from(0), batch_dict.texts_from(0));
    }

    #[test]
    fn streaming_encoder_matches_batch_at_every_length() {
        let mut mix = Mix(1);
        for len in 0..300 {
            let mut cols = Vec::new();
            for kind in KINDS {
                // Varying, constant, absent-then-present, late absences.
                cols.push((0..len).map(|_| Some(value(kind, &mut mix))).collect());
                let v = value(kind, &mut mix);
                cols.push(vec![Some(v); len]);
                cols.push((0..len).map(|t| (t >= len / 2).then_some(v)).collect());
                let late = len.saturating_sub(1 + len / 7);
                cols.push(
                    (0..len)
                        .map(|t| (t < late || t % 3 == 0).then(|| value(kind, &mut mix)))
                        .collect(),
                );
            }
            cols.push(vec![None; len]);
            let split = mix.below(len as u64 + 1) as usize;
            assert_encoders_agree(&cols, split);
        }
    }

    #[test]
    fn constant_prefix_broken_at_every_position_matches_batch() {
        let mut mix = Mix(2);
        for at in 0..17 {
            for len in [at, at + 1, at + 2, at + 9, 40] {
                let mut cols = Vec::new();
                for kind in KINDS {
                    let v = value(kind, &mut mix);
                    let breaker = loop {
                        let w = value(kind, &mut mix);
                        if !bits_eq(w, v) {
                            break w;
                        }
                    };
                    let prefix = |t: usize| t < at;
                    // Broken by another value, by an absence, by a
                    // value of another kind, and an absent prefix
                    // broken by a value.
                    cols.push(
                        (0..len)
                            .map(|t| Some(if prefix(t) { v } else { breaker }))
                            .collect(),
                    );
                    cols.push((0..len).map(|t| prefix(t).then_some(v)).collect());
                    let other = value(KINDS[(kind as usize + 1) % 4], &mut mix);
                    cols.push(
                        (0..len)
                            .map(|t| Some(if t == at { other } else { v }))
                            .collect(),
                    );
                    cols.push((0..len).map(|t| (!prefix(t)).then_some(v)).collect());
                }
                for split in [0, at, at + 1, len] {
                    assert_encoders_agree(&cols, split);
                }
            }
        }
    }

    #[test]
    fn mixed_columns_match_batch_for_every_kind_pair() {
        let mut mix = Mix(3);
        for first in KINDS {
            for second in KINDS {
                for len in [2, 9, 64, 133] {
                    for switch in [1, len / 2, len - 1] {
                        // One kind, then the other, with and without
                        // gaps — `Sym` then `Real` included.
                        let col: Vec<Option<Value>> = (0..len)
                            .map(|t| Some(value(if t < switch { first } else { second }, &mut mix)))
                            .collect();
                        let gappy: Vec<Option<Value>> = col
                            .iter()
                            .enumerate()
                            .map(|(t, s)| if t % 5 == 3 { None } else { *s })
                            .collect();
                        let shuffled: Vec<Option<Value>> = (0..len)
                            .map(|_| match mix.below(3) {
                                0 => None,
                                1 => Some(value(first, &mut mix)),
                                _ => Some(value(second, &mut mix)),
                            })
                            .collect();
                        let split = mix.below(len as u64 + 1) as usize;
                        assert_encoders_agree(&[col, gappy, shuffled], split);
                    }
                }
            }
        }
    }

    #[test]
    fn symbols_are_interned_in_column_order_whatever_the_arrival_order() {
        // The constant column names its symbol last in time but first
        // in column order, so it must take dictionary id 0.
        let (hold, go, stop) = (
            Value::sym("enc-order-hold"),
            Value::sym("enc-order-go"),
            Value::sym("enc-order-stop"),
        );
        let cols = vec![
            vec![Some(hold); 12],
            (0..12)
                .map(|t| Some(if t < 6 { go } else { hold }))
                .collect(),
            (0..12)
                .map(|t| Some(if t % 2 == 0 { stop } else { Value::Real(1.0) }))
                .collect::<Vec<_>>(),
        ];
        assert_encoders_agree(&cols, 5);
        let t = {
            let mut b = SignalTable::builder();
            b.sym("a");
            b.sym("b");
            b.real("c");
            b.finish()
        };
        let mut run = RunEncoder::new(&t);
        let mut frame = t.frame();
        for tick in 0..12 {
            for (id, col) in t.ids().zip(&cols) {
                frame.slots[id.index()] = col[tick];
            }
            run.push(&frame);
        }
        let mut dict = SymDict::new();
        run.encode(&meta(12), &mut dict);
        assert_eq!(
            dict.texts_from(0),
            ["enc-order-hold", "enc-order-go", "enc-order-stop"]
        );
    }

    proptest::proptest! {
        /// A run encoder fed frame by frame encodes what `encode_run`
        /// encodes over the recorded trace of the same frames.
        #[test]
        fn run_encoder_fed_frames_matches_encode_run(
            len in 0usize..200,
            seed in 0u64..1_000_000,
            absent_pct in 0u64..60,
        ) {
            let t = table();
            let mut mix = Mix(seed);
            let mut trace = FrameTrace::new(&t, 1);
            let mut run = RunEncoder::new(&t);
            let mut frame = t.frame();
            // Each column holds its value for a random stretch, so
            // constant prefixes, runs and changes all occur.
            let mut held: Vec<Option<Value>> = vec![None; t.len()];
            for _ in 0..len {
                for id in t.ids() {
                    if mix.below(4) == 0 {
                        held[id.index()] = (mix.below(100) >= absent_pct)
                            .then(|| value(t.kind(id), &mut mix));
                    }
                    frame.slots[id.index()] = held[id.index()];
                }
                trace.push(&frame);
                run.push(&frame);
            }
            let m = meta(len as u64);
            let (mut d1, mut d2) = (SymDict::new(), SymDict::new());
            let streamed = run.encode(&m, &mut d1);
            proptest::prop_assert_eq!(&streamed, &encode_run(&trace, &m, &mut d2));
            proptest::prop_assert_eq!(d1.texts_from(0), d2.texts_from(0));
            let mut d3 = SymDict::new();
            let mut batch = Vec::new();
            put_meta(&mut batch, &m);
            put_varint(&mut batch, t.len() as u64);
            for id in t.ids() {
                let body = batch_encode_column(trace.column(id), &mut d3);
                put_varint(&mut batch, body.len() as u64);
                batch.extend_from_slice(&body);
            }
            proptest::prop_assert_eq!(streamed, batch);
        }
    }

    #[test]
    fn varints_round_trip() {
        for x in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 35] {
            let mut out = Vec::new();
            put_varint(&mut out, x);
            assert_eq!(Cur::new(&out).varint(), Some(x));
        }
        for x in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn tables_round_trip() {
        let t = table();
        let back = decode_table(&encode_table(&t)).unwrap();
        assert!(t.same_names(&back));
        for id in t.ids() {
            assert_eq!(t.kind(id), back.kind(back.id(t.name(id)).unwrap()));
        }
    }

    #[test]
    fn runs_round_trip_bit_identically() {
        let t = table();
        let (p, n, x, cmd) = (
            t.id("p").unwrap(),
            t.id("n").unwrap(),
            t.id("x").unwrap(),
            t.id("cmd").unwrap(),
        );
        let mut trace = FrameTrace::new(&t, 1);
        let mut frame = t.frame();
        for i in 0..20i64 {
            frame.clear();
            frame.set(p, i % 3 == 0);
            if i % 4 != 1 {
                frame.set(n, i * 1000 - 7);
            }
            // Real column with an Int sample mixed in, plus a NaN.
            if i == 5 {
                frame.set(x, Value::Int(9));
            } else if i == 6 {
                frame.set(x, f64::from_bits(0x7ff8_dead_beef_0001));
            } else {
                frame.set(x, (i as f64) * 0.25 - 1.0);
            }
            frame.set(cmd, Value::sym(if i % 2 == 0 { "GO" } else { "HOLD" }));
            trace.push(&frame);
        }
        let mut dict = SymDict::new();
        let bytes = encode_run(&trace, &meta(20), &mut dict);
        assert_eq!(dict.len(), 2);
        let (m, back) = decode_run_trace(&bytes, &t, &dict).unwrap();
        assert_eq!(m, meta(20));
        assert_eq!(back.len(), trace.len());
        for id in t.ids() {
            let (a, b) = (trace.column(id), back.column(id));
            assert_eq!(a.len(), b.len());
            for (sa, sb) in a.iter().zip(b) {
                match (sa, sb) {
                    (None, None) => {}
                    (Some(va), Some(vb)) => assert!(bits_eq(*va, *vb), "{va} != {vb}"),
                    _ => panic!("presence diverged"),
                }
            }
        }
        // Re-encoding the decoded trace with a fresh dict reproduces
        // the bytes exactly.
        let mut dict2 = SymDict::new();
        assert_eq!(encode_run(&back, &meta(20), &mut dict2), bytes);
    }

    #[test]
    fn empty_and_constant_columns_stay_small() {
        let t = table();
        let p = t.id("p").unwrap();
        let mut trace = FrameTrace::new(&t, 1);
        let mut frame = t.frame();
        frame.set(p, true);
        for _ in 0..10_000 {
            trace.push(&frame);
        }
        let mut dict = SymDict::new();
        let bytes = encode_run(&trace, &meta(10_000), &mut dict);
        assert!(
            bytes.len() < 128,
            "constant/empty columns must not scale with ticks, got {} bytes",
            bytes.len()
        );
        let (_, back) = decode_run_trace(&bytes, &t, &dict).unwrap();
        assert_eq!(back.len(), 10_000);
        assert_eq!(back.get(9_999, p), Some(Value::Bool(true)));
    }

    #[test]
    fn truncation_never_decodes() {
        let t = table();
        let x = t.id("x").unwrap();
        let mut trace = FrameTrace::new(&t, 1);
        let mut frame = t.frame();
        for i in 0..8 {
            frame.set(x, i as f64);
            trace.push(&frame);
        }
        let mut dict = SymDict::new();
        let bytes = encode_run(&trace, &meta(8), &mut dict);
        for cut in 0..bytes.len() {
            assert!(
                decode_run_trace(&bytes[..cut], &t, &dict).is_none(),
                "a {cut}-byte prefix of a {}-byte run decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn hostile_tick_counts_are_rejected_before_allocation() {
        let mut out = Vec::new();
        put_meta(
            &mut out,
            &RunMeta {
                ticks: MAX_RUN_TICKS + 1,
                ..meta(0)
            },
        );
        assert!(decode_run_meta(&out).is_none());
    }

    #[test]
    fn run_end_times_past_u64_milliseconds_are_rejected() {
        let encoded = |dt_millis: u64, ticks: u64| {
            let mut out = Vec::new();
            put_meta(
                &mut out,
                &RunMeta {
                    dt_millis,
                    ticks,
                    ..meta(0)
                },
            );
            out
        };
        let last = u64::MAX / (MAX_RUN_TICKS - 1);
        assert!(decode_run_meta(&encoded(last, MAX_RUN_TICKS)).is_some());
        assert!(decode_run_meta(&encoded(last + 1, MAX_RUN_TICKS)).is_none());
        assert!(decode_run_meta(&encoded(1 << 41, MAX_RUN_TICKS)).is_none());
        // One tick ends at time zero whatever the period.
        assert!(decode_run_meta(&encoded(u64::MAX, 1)).is_some());
    }
}
