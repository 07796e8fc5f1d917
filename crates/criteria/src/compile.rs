//! Lowering [`Check`] trees into flat, versioned bytecode programs.
//!
//! `crates/criteria` originally evaluated every criterion by walking the
//! [`Check`] AST once per cell. This module is the compiler half of the
//! criteria VM (see [`crate::vm`] for the evaluator): each verified check is
//! lowered *once* into a [`Program`] — a flat instruction stream plus a
//! [`ConstPool`] of interned constants — and then evaluated per **distinct**
//! value (or distinct value *pair* for cross-column checks) instead of per
//! cell. The AST walk in [`crate::dsl`] stays, byte-for-byte unchanged, as
//! the specification oracle; `tests/vm_differential.rs` asserts the two are
//! bit-identical on randomly generated check trees and tables.
//!
//! ## Bytecode layout
//!
//! A program is a stack machine over booleans. Most checks lower to a single
//! fused opcode carrying pool indices or immediates; only [`Check::CrossKeyword`]
//! needs real stack traffic (one `PushTrue` accumulator folded with
//! `And`/`Or`/`Not` per keyword pair). Immediates are little-endian; pool
//! indices are `u32`.
//!
//! | op   | name            | immediates          | semantics                                        |
//! |------|-----------------|---------------------|--------------------------------------------------|
//! | 0x01 | `NotMissing`    | —                   | push `!is_missing(this)`                         |
//! | 0x02 | `PatternIn`     | set: u32            | push `str_sets[set]` ∋ `generalize(this, L3)`    |
//! | 0x03 | `LenInRange`    | min: u64, max: u64  | push `min <= chars(this) <= max`                 |
//! | 0x04 | `NumInRange`    | lo: u32, hi: u32    | push `f64s[lo] <= parse(this) <= f64s[hi]`       |
//! | 0x05 | `DomainIn`      | set: u32            | push `str_sets[set]` ∋ `lower(trim(this))`       |
//! | 0x06 | `CharsetOk`     | cs: u32             | push ∀c ∈ this: c allowed by `charsets[cs]`      |
//! | 0x07 | `TokensInRange` | min: u64, max: u64  | push `min <= tokens(this) <= max`                |
//! | 0x08 | `FdConsistent`  | map: u32            | push FD check of `this` against `fd_maps[map]`   |
//! | 0x09 | `OtherContains` | s: u32              | push `lower(other)` contains `strings[s]`        |
//! | 0x0A | `ThisContains`  | s: u32              | push `lower(this)` contains `strings[s]`         |
//! | 0x0B | `PushTrue`      | —                   | push `true`                                      |
//! | 0x0C | `And`           | —                   | pop b, pop a, push `a && b`                      |
//! | 0x0D | `Or`            | —                   | pop b, pop a, push `a \|\| b`                    |
//! | 0x0E | `Not`           | —                   | pop a, push `!a`                                 |
//!
//! ## Constant-pool determinism
//!
//! [`Check`]'s unordered collections (`HashSet` domains/patterns, `HashMap`
//! FD mappings) are sorted during lowering, so logically identical checks
//! always compile to byte-identical programs — the same discipline
//! `zeroed_store::canonical_criteria` applies to the serialised DSL. Sorted
//! pools also let the VM use binary search for membership. The golden tests
//! in `tests/bytecode_golden.rs` byte-pin one exemplar program per check
//! variant against [`Program::to_bytes`].
//!
//! The compiler is **total**: every well-formed [`Check`] lowers to a
//! program (there is no rejection path), mirroring the oracle, which never
//! fails to evaluate.

use crate::dsl::{Check, CriteriaSet};

/// Version of the opcode set + byte encoding. Bump on any change to opcode
/// numbering, immediate widths or pool layout; [`Program::from_bytes`]
/// rejects other versions.
pub const BYTECODE_VERSION: u16 = 1;

/// Magic prefix of the byte encoding (`"ZCVM"`).
pub const BYTECODE_MAGIC: [u8; 4] = *b"ZCVM";

/// Opcode bytes of the criteria VM. The discriminant values are part of the
/// on-byte format and must never be renumbered without bumping
/// [`BYTECODE_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// `push !is_missing(this)`
    NotMissing = 0x01,
    /// `push str_sets[imm] contains generalize(this, Level::L3)`
    PatternIn = 0x02,
    /// `push min <= this.chars().count() <= max`
    LenInRange = 0x03,
    /// `push f64s[lo] <= parse_numeric(this) <= f64s[hi]` (unparsable → false)
    NumInRange = 0x04,
    /// `push str_sets[imm] contains this.trim().to_lowercase()`
    DomainIn = 0x05,
    /// `push` every char of `this` allowed by `charsets[imm]`
    CharsetOk = 0x06,
    /// `push min <= tokenize(this).len() <= max`
    TokensInRange = 0x07,
    /// `push` FD consistency of `this` given determinant `other`
    FdConsistent = 0x08,
    /// `push other.to_lowercase() contains strings[imm]`
    OtherContains = 0x09,
    /// `push this.to_lowercase() contains strings[imm]`
    ThisContains = 0x0A,
    /// `push true`
    PushTrue = 0x0B,
    /// `pop b, pop a, push a && b`
    And = 0x0C,
    /// `pop b, pop a, push a || b`
    Or = 0x0D,
    /// `pop a, push !a`
    Not = 0x0E,
}

impl Op {
    /// Decodes an opcode byte.
    pub fn from_byte(byte: u8) -> Option<Op> {
        Some(match byte {
            0x01 => Op::NotMissing,
            0x02 => Op::PatternIn,
            0x03 => Op::LenInRange,
            0x04 => Op::NumInRange,
            0x05 => Op::DomainIn,
            0x06 => Op::CharsetOk,
            0x07 => Op::TokensInRange,
            0x08 => Op::FdConsistent,
            0x09 => Op::OtherContains,
            0x0A => Op::ThisContains,
            0x0B => Op::PushTrue,
            0x0C => Op::And,
            0x0D => Op::Or,
            0x0E => Op::Not,
            _ => return None,
        })
    }
}

/// A compiled character-class filter ([`Check::Charset`] lowered): three
/// class flags plus a sorted, deduplicated list of extra allowed symbols.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CharsetSpec {
    /// Letters allowed (`char::is_alphabetic`).
    pub letters: bool,
    /// ASCII digits allowed.
    pub digits: bool,
    /// Whitespace allowed.
    pub whitespace: bool,
    /// Extra allowed symbols, sorted ascending and deduplicated.
    pub symbols: Vec<char>,
}

impl CharsetSpec {
    /// Whether `c` is allowed by this charset — exactly the oracle's
    /// per-character predicate, with `symbols.contains` replaced by binary
    /// search over the sorted pool.
    #[inline]
    pub fn allows(&self, c: char) -> bool {
        (c.is_alphabetic() && self.letters)
            || (c.is_ascii_digit() && self.digits)
            || (c.is_whitespace() && self.whitespace)
            || self.symbols.binary_search(&c).is_ok()
    }
}

/// Interned constants referenced by pool-index immediates in the instruction
/// stream. All unordered source collections arrive here sorted (see module
/// docs), so equal checks produce equal pools.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstPool {
    /// Plain strings (`ThisContains`/`OtherContains` needles, pre-lowercased
    /// exactly as the oracle compares them).
    pub strings: Vec<String>,
    /// Sorted, deduplicated membership sets (domains, pattern templates).
    pub str_sets: Vec<Vec<String>>,
    /// `f64` immediates (numeric-range bounds), bit-preserved.
    pub f64s: Vec<f64>,
    /// FD mappings as `(determinant, expected)` pairs sorted by determinant.
    pub fd_maps: Vec<Vec<(String, String)>>,
    /// Charset filters.
    pub charsets: Vec<CharsetSpec>,
}

impl ConstPool {
    fn push_string(&mut self, s: String) -> u32 {
        let idx = self.strings.len() as u32;
        self.strings.push(s);
        idx
    }

    fn push_str_set(&mut self, mut set: Vec<String>) -> u32 {
        set.sort();
        set.dedup();
        let idx = self.str_sets.len() as u32;
        self.str_sets.push(set);
        idx
    }

    fn push_f64(&mut self, x: f64) -> u32 {
        let idx = self.f64s.len() as u32;
        self.f64s.push(x);
        idx
    }

    fn push_fd_map(&mut self, mut map: Vec<(String, String)>) -> u32 {
        map.sort();
        let idx = self.fd_maps.len() as u32;
        self.fd_maps.push(map);
        idx
    }

    fn push_charset(&mut self, spec: CharsetSpec) -> u32 {
        let idx = self.charsets.len() as u32;
        self.charsets.push(spec);
        idx
    }
}

/// One compiled check: a flat instruction stream over the pool, plus the
/// column wiring the VM needs to feed it (`col` supplies `this`; `other_col`,
/// when present, supplies `other` for cross-column checks).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Bytecode format version ([`BYTECODE_VERSION`] for programs produced by
    /// this compiler).
    pub version: u16,
    /// Column whose cell value is `this`.
    pub col: u32,
    /// Second input column (`FdLookup` determinant / `CrossKeyword` other),
    /// `None` for single-cell checks.
    pub other_col: Option<u32>,
    /// The instruction stream (opcode bytes + little-endian immediates).
    pub code: Vec<u8>,
    /// Interned constants referenced by the instruction stream.
    pub pool: ConstPool,
}

struct Emitter {
    code: Vec<u8>,
    pool: ConstPool,
    other_col: Option<u32>,
}

impl Emitter {
    fn op(&mut self, op: Op) {
        self.code.push(op as u8);
    }

    fn u32(&mut self, x: u32) {
        self.code.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.code.extend_from_slice(&x.to_le_bytes());
    }
}

/// Lowers one [`Check`] for column `col` into a [`Program`]. Total: every
/// check compiles (the differential and golden suites hold the compiler to
/// "rejects nothing the oracle accepts").
pub fn compile_check(check: &Check, col: usize) -> Program {
    let mut e = Emitter {
        code: Vec::new(),
        pool: ConstPool::default(),
        other_col: None,
    };
    match check {
        Check::NotMissing => e.op(Op::NotMissing),
        Check::PatternTemplate { allowed } => {
            let set = e.pool.push_str_set(allowed.iter().cloned().collect());
            e.op(Op::PatternIn);
            e.u32(set);
        }
        Check::LengthRange { min, max } => {
            e.op(Op::LenInRange);
            e.u64(*min as u64);
            e.u64(*max as u64);
        }
        Check::NumericRange { min, max } => {
            let lo = e.pool.push_f64(*min);
            let hi = e.pool.push_f64(*max);
            e.op(Op::NumInRange);
            e.u32(lo);
            e.u32(hi);
        }
        Check::Domain { allowed } => {
            let set = e.pool.push_str_set(allowed.iter().cloned().collect());
            e.op(Op::DomainIn);
            e.u32(set);
        }
        Check::Charset {
            letters,
            digits,
            whitespace,
            symbols,
        } => {
            let mut sorted = symbols.clone();
            sorted.sort();
            sorted.dedup();
            let cs = e.pool.push_charset(CharsetSpec {
                letters: *letters,
                digits: *digits,
                whitespace: *whitespace,
                symbols: sorted,
            });
            e.op(Op::CharsetOk);
            e.u32(cs);
        }
        Check::TokenCountRange { min, max } => {
            e.op(Op::TokensInRange);
            e.u64(*min as u64);
            e.u64(*max as u64);
        }
        Check::FdLookup {
            determinant_col,
            mapping,
        } => {
            e.other_col = Some(*determinant_col as u32);
            let map = e
                .pool
                .push_fd_map(mapping.iter().map(|(k, v)| (k.clone(), v.clone())).collect());
            e.op(Op::FdConsistent);
            e.u32(map);
        }
        Check::CrossKeyword { other_col, pairs } => {
            e.other_col = Some(*other_col as u32);
            // acc = true; for each (trigger, required):
            //   acc &&= !other.contains(trigger) || this.contains(required)
            // — the contrapositive of the oracle's early-return loop, folded
            // left so evaluation order (and short-circuit-free semantics)
            // match exactly: `contains` is pure, so evaluating every pair is
            // observably identical to the oracle's early return.
            e.op(Op::PushTrue);
            for (trigger, required) in pairs {
                let t = e.pool.push_string(trigger.clone());
                let r = e.pool.push_string(required.clone());
                e.op(Op::OtherContains);
                e.u32(t);
                e.op(Op::Not);
                e.op(Op::ThisContains);
                e.u32(r);
                e.op(Op::Or);
                e.op(Op::And);
            }
        }
    }
    Program {
        version: BYTECODE_VERSION,
        col: col as u32,
        other_col: e.other_col,
        code: e.code,
        pool: e.pool,
    }
}

/// A whole attribute's criteria compiled to programs, in criterion order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSet {
    /// Attribute (column) index the programs read `this` from.
    pub column: usize,
    /// One program per criterion of the source [`CriteriaSet`], same order.
    pub programs: Vec<Program>,
}

impl CompiledSet {
    /// Number of compiled criteria.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the set compiled to zero programs.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

/// Compiles every criterion of `set` (see [`compile_check`]).
pub fn compile_set(set: &CriteriaSet) -> CompiledSet {
    CompiledSet {
        column: set.column,
        programs: set
            .criteria
            .iter()
            .map(|c| compile_check(&c.check, set.column))
            .collect(),
    }
}

/// Errors produced by [`Program::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with [`BYTECODE_MAGIC`].
    BadMagic,
    /// The encoded version differs from [`BYTECODE_VERSION`].
    WrongVersion(u16),
    /// The buffer ended mid-field or carried trailing garbage.
    Truncated,
    /// A string field was not valid UTF-8 / a char field not a valid scalar.
    Malformed,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad bytecode magic"),
            DecodeError::WrongVersion(v) => {
                write!(f, "bytecode version {v} (expected {BYTECODE_VERSION})")
            }
            DecodeError::Truncated => write!(f, "truncated bytecode"),
            DecodeError::Malformed => write!(f, "malformed bytecode field"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Program {
    /// Serialises the program to the versioned byte format the golden tests
    /// pin. Layout: magic, version, `col`, optional `other_col`, the five
    /// pool sections, then the instruction stream — all integers
    /// little-endian, all strings length-prefixed UTF-8.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&BYTECODE_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.col.to_le_bytes());
        match self.other_col {
            Some(c) => {
                out.push(1);
                out.extend_from_slice(&c.to_le_bytes());
            }
            None => out.push(0),
        }
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&(self.pool.strings.len() as u32).to_le_bytes());
        for s in &self.pool.strings {
            put_str(&mut out, s);
        }
        out.extend_from_slice(&(self.pool.str_sets.len() as u32).to_le_bytes());
        for set in &self.pool.str_sets {
            out.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for s in set {
                put_str(&mut out, s);
            }
        }
        out.extend_from_slice(&(self.pool.f64s.len() as u32).to_le_bytes());
        for x in &self.pool.f64s {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.pool.fd_maps.len() as u32).to_le_bytes());
        for map in &self.pool.fd_maps {
            out.extend_from_slice(&(map.len() as u32).to_le_bytes());
            for (k, v) in map {
                put_str(&mut out, k);
                put_str(&mut out, v);
            }
        }
        out.extend_from_slice(&(self.pool.charsets.len() as u32).to_le_bytes());
        for cs in &self.pool.charsets {
            out.push(u8::from(cs.letters) | (u8::from(cs.digits) << 1) | (u8::from(cs.whitespace) << 2));
            out.extend_from_slice(&(cs.symbols.len() as u32).to_le_bytes());
            for &c in &cs.symbols {
                out.extend_from_slice(&(c as u32).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.code);
        out
    }

    /// Decodes a program previously produced by [`Program::to_bytes`],
    /// rejecting foreign magic, other format versions, truncation and
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Program, DecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != BYTECODE_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().unwrap());
        if version != BYTECODE_VERSION {
            return Err(DecodeError::WrongVersion(version));
        }
        let col = r.u32()?;
        let other_col = match r.take(1)?[0] {
            0 => None,
            1 => Some(r.u32()?),
            _ => return Err(DecodeError::Malformed),
        };
        let mut pool = ConstPool::default();
        for _ in 0..r.u32()? {
            let s = r.string()?;
            pool.strings.push(s);
        }
        for _ in 0..r.u32()? {
            let n = r.u32()?;
            let mut set = Vec::with_capacity(n as usize);
            for _ in 0..n {
                set.push(r.string()?);
            }
            pool.str_sets.push(set);
        }
        for _ in 0..r.u32()? {
            let bits = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
            pool.f64s.push(f64::from_bits(bits));
        }
        for _ in 0..r.u32()? {
            let n = r.u32()?;
            let mut map = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let k = r.string()?;
                let v = r.string()?;
                map.push((k, v));
            }
            pool.fd_maps.push(map);
        }
        for _ in 0..r.u32()? {
            let flags = r.take(1)?[0];
            let n = r.u32()?;
            let mut symbols = Vec::with_capacity(n as usize);
            for _ in 0..n {
                symbols.push(char::from_u32(r.u32()?).ok_or(DecodeError::Malformed)?);
            }
            pool.charsets.push(CharsetSpec {
                letters: flags & 1 != 0,
                digits: flags & 2 != 0,
                whitespace: flags & 4 != 0,
                symbols,
            });
        }
        let code_len = r.u32()? as usize;
        let code = r.take(code_len)?.to_vec();
        if r.pos != bytes.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(Program {
            version,
            col,
            other_col,
            code,
            pool,
        })
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::Criterion;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn pools_are_sorted_regardless_of_source_order() {
        let a = Check::Domain {
            allowed: ["zeta", "alpha", "mid"].iter().map(|s| s.to_string()).collect(),
        };
        let b = Check::Domain {
            allowed: ["mid", "zeta", "alpha"].iter().map(|s| s.to_string()).collect(),
        };
        assert_eq!(compile_check(&a, 0), compile_check(&b, 0));
        assert_eq!(
            compile_check(&a, 0).pool.str_sets[0],
            vec!["alpha".to_string(), "mid".into(), "zeta".into()]
        );
    }

    #[test]
    fn fd_maps_sort_by_determinant() {
        let mut mapping = HashMap::new();
        mapping.insert("b".to_string(), "2".to_string());
        mapping.insert("a".to_string(), "1".to_string());
        let p = compile_check(
            &Check::FdLookup {
                determinant_col: 3,
                mapping,
            },
            1,
        );
        assert_eq!(p.other_col, Some(3));
        assert_eq!(
            p.pool.fd_maps[0],
            vec![("a".to_string(), "1".to_string()), ("b".into(), "2".into())]
        );
    }

    #[test]
    fn round_trip_every_variant() {
        let checks: Vec<Check> = vec![
            Check::NotMissing,
            Check::PatternTemplate {
                allowed: HashSet::from(["D[5]".to_string(), "U[2]".into()]),
            },
            Check::LengthRange { min: 1, max: 9 },
            Check::NumericRange { min: -1.5, max: 1e9 },
            Check::Domain {
                allowed: HashSet::from(["x".to_string()]),
            },
            Check::Charset {
                letters: true,
                digits: false,
                whitespace: true,
                symbols: vec!['-', '.', '-'],
            },
            Check::TokenCountRange { min: 0, max: 4 },
            Check::FdLookup {
                determinant_col: 0,
                mapping: HashMap::from([("k".to_string(), "v".to_string())]),
            },
            Check::CrossKeyword {
                other_col: 2,
                pairs: vec![("ami".into(), "heart attack".into())],
            },
        ];
        for check in checks {
            let p = compile_check(&check, 1);
            let bytes = p.to_bytes();
            assert_eq!(Program::from_bytes(&bytes).unwrap(), p, "{check:?}");
        }
    }

    #[test]
    fn decode_rejects_bad_inputs() {
        let p = compile_check(&Check::NotMissing, 0);
        let bytes = p.to_bytes();
        assert_eq!(Program::from_bytes(&bytes[1..]), Err(DecodeError::BadMagic));
        let mut wrong = bytes.clone();
        wrong[4] = 0xFF; // version low byte
        assert!(matches!(
            Program::from_bytes(&wrong),
            Err(DecodeError::WrongVersion(_))
        ));
        assert_eq!(
            Program::from_bytes(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        );
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(Program::from_bytes(&trailing), Err(DecodeError::Truncated));
    }

    #[test]
    fn compile_set_preserves_order_and_column() {
        let set = CriteriaSet {
            column: 2,
            criteria: vec![
                Criterion::new("a", "", Check::NotMissing),
                Criterion::new("b", "", Check::LengthRange { min: 5, max: 5 }),
            ],
        };
        let compiled = compile_set(&set);
        assert_eq!(compiled.column, 2);
        assert_eq!(compiled.len(), 2);
        assert!(!compiled.is_empty());
        assert_eq!(compiled.programs[0].code[0], Op::NotMissing as u8);
        assert_eq!(compiled.programs[1].code[0], Op::LenInRange as u8);
    }
}
