//! The scan-chain IR handed to the compilers — the "runtime parameters"
//! of paper §V: source kind (element type or bit-packed width), comparison
//! operator and literal per predicate, and whether the operator must emit
//! a position list or only a count. The JIT specializes all of them into
//! the emitted code (needles become immediates, operators become
//! instruction immediates, packed widths become unpack constants), which
//! is why the number of static instantiations would otherwise explode.

use fts_core::{value_key_bits, ChainPred};
use fts_storage::{CmpOp, DataType, NativeType};

/// Maximum chain length one compiled kernel supports (the paper evaluates
/// up to 5 predicates; the register allocation in the AVX-512 backend is
/// laid out for this bound).
pub const MAX_JIT_PREDICATES: usize = 5;

/// Element kinds with JIT backends (the 4- and 8-byte types; narrower
/// widths route through dictionary encoding to `u32`, see `fts-storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JitElem {
    /// Unsigned 32-bit integers (`vpcmpud`).
    U32,
    /// Signed 32-bit integers (`vpcmpd`).
    I32,
    /// Single-precision floats (`vcmpps`, ordered predicates).
    F32,
    /// Unsigned 64-bit integers (`vpcmpuq`).
    U64,
    /// Signed 64-bit integers (`vpcmpq`).
    I64,
    /// Double-precision floats (`vcmppd`, ordered predicates).
    F64,
}

impl JitElem {
    /// Lanes per 512-bit value register (= rows per kernel block).
    pub fn lanes(self) -> usize {
        match self {
            JitElem::U32 | JitElem::I32 | JitElem::F32 => 16,
            JitElem::U64 | JitElem::I64 | JitElem::F64 => 8,
        }
    }
}

/// Where a predicate's values come from: the JIT's mirror of the source
/// kinds of `fts_core::ChainPred`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JitSrc {
    /// A plain column of 32- or 64-bit elements.
    Plain(JitElem),
    /// A bit-packed column of unsigned values, `bits` wide.
    Packed {
        /// Bits per value.
        bits: u8,
    },
}

impl JitSrc {
    /// Rows per block: 16 for 32-bit and packed sources, 8 for 64-bit.
    pub fn lanes(self) -> usize {
        match self {
            JitSrc::Plain(elem) => elem.lanes(),
            JitSrc::Packed { .. } => 16,
        }
    }

    /// The element kind the values compare as (packed values are `u32`).
    pub fn elem(self) -> JitElem {
        match self {
            JitSrc::Plain(elem) => elem,
            JitSrc::Packed { .. } => JitElem::U32,
        }
    }
}

/// One predicate: source, operator and the literal's raw lane bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JitPred {
    /// The column's source kind.
    pub src: JitSrc,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal bits (32-bit kinds use the low half; `f64::to_bits` etc.
    /// for the 8-byte kinds).
    pub needle_bits: u64,
}

impl JitPred {
    /// `column OP needle` over a plain column of `T`.
    ///
    /// # Panics
    ///
    /// If `T` is an 8- or 16-bit type, which has no JIT element kind.
    pub fn plain<T: NativeType>(op: CmpOp, needle: T) -> JitPred {
        let elem = match T::DATA_TYPE {
            DataType::U32 => JitElem::U32,
            DataType::I32 => JitElem::I32,
            DataType::F32 => JitElem::F32,
            DataType::U64 => JitElem::U64,
            DataType::I64 => JitElem::I64,
            DataType::F64 => JitElem::F64,
            other => panic!("{other:?} has no JIT element kind"),
        };
        JitPred {
            src: JitSrc::Plain(elem),
            op,
            needle_bits: value_key_bits(needle.to_value()),
        }
    }

    /// The signature of one driver-chain predicate.
    pub fn of(pred: &ChainPred<'_>) -> JitPred {
        match *pred {
            ChainPred::U32(p) => JitPred::plain(p.op, p.needle),
            ChainPred::I32(p) => JitPred::plain(p.op, p.needle),
            ChainPred::F32(p) => JitPred::plain(p.op, p.needle),
            ChainPred::U64(p) => JitPred::plain(p.op, p.needle),
            ChainPred::I64(p) => JitPred::plain(p.op, p.needle),
            ChainPred::F64(p) => JitPred::plain(p.op, p.needle),
            ChainPred::Packed { col, op, needle } => JitPred {
                src: JitSrc::Packed { bits: col.bits() },
                op,
                needle_bits: needle as u64,
            },
        }
    }
}

/// A full scan-chain signature — also the kernel-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanSig {
    /// The predicates in evaluation order.
    pub preds: Vec<JitPred>,
    /// Whether the kernel writes matching positions (true) or only counts.
    pub emit_positions: bool,
}

impl ScanSig {
    /// Signature of a plain chain over columns of one type `T`.
    ///
    /// # Panics
    ///
    /// If `T` is an 8- or 16-bit type (see [`JitPred::plain`]).
    pub fn typed<T: NativeType>(preds: &[(CmpOp, T)], emit_positions: bool) -> ScanSig {
        ScanSig {
            preds: preds.iter().map(|&(op, n)| JitPred::plain(op, n)).collect(),
            emit_positions,
        }
    }

    /// Signature for a `u32` chain.
    pub fn u32_chain(preds: &[(CmpOp, u32)], emit_positions: bool) -> ScanSig {
        ScanSig::typed(preds, emit_positions)
    }

    /// The signature of a driver chain, the same `&[ChainPred]`
    /// [`CompiledKernel::run`](crate::CompiledKernel::run) executes.
    pub fn of_chain(chain: &[ChainPred<'_>], emit_positions: bool) -> ScanSig {
        ScanSig {
            preds: chain.iter().map(JitPred::of).collect(),
            emit_positions,
        }
    }

    /// Rows per kernel block: the lane count of the driver's source.
    /// Compiled chains agree on it (see [`JitError::MixedWidths`]).
    pub fn lanes(&self) -> usize {
        self.preds.first().map_or(16, |p| p.src.lanes())
    }

    /// The element kind every predicate shares, if the chain is plain and
    /// homogeneous — what the scalar and C++ backends accept.
    pub fn uniform_elem(&self) -> Result<JitElem, JitError> {
        let elem = match self.preds.first().map(|p| p.src) {
            Some(JitSrc::Plain(elem)) => elem,
            Some(src) => return Err(JitError::SrcUnsupported(src)),
            None => return Err(JitError::BadChainLength(0)),
        };
        match self.preds.iter().find(|p| p.src != JitSrc::Plain(elem)) {
            Some(p) => Err(JitError::SrcUnsupported(p.src)),
            None => Ok(elem),
        }
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

/// The argument block passed to every compiled kernel (SysV: pointer in
/// `rdi`). Field offsets are part of the emitted code's ABI — keep in sync
/// with the compilers.
#[repr(C)]
#[derive(Debug)]
pub struct KernelArgs {
    /// Base pointer of each predicate's column (offset `8 * i`).
    pub cols: [*const u8; 8],
    /// Rows to process (offset 64). The AVX-512 backend expects this
    /// pre-truncated to a multiple of the chain's lane count (the wrapper
    /// owns the tail).
    pub rows: u64,
    /// Position output buffer (offset 72); must have `rows + 16` capacity.
    /// Null in count mode.
    pub out: *mut u32,
}

/// `extern "C"` signature of every compiled kernel: takes `&KernelArgs`,
/// returns the match count; positions (if any) are written to `args.out`.
pub type KernelFn = unsafe extern "C" fn(*const KernelArgs) -> u64;

/// Errors from the JIT pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// Chain longer than [`MAX_JIT_PREDICATES`] or empty.
    BadChainLength(usize),
    /// This backend does not support the source (e.g. `f32` or a packed
    /// column in the scalar backend).
    SrcUnsupported(JitSrc),
    /// Predicate `pred` reads a bit-packed source the AVX-512 backend
    /// cannot compile: a width of 0 or above 32, a driver wider than 16
    /// bits, or a literal above the width's maximum (resolve those before
    /// compiling, as `fts_core::fused::driver` does).
    BadPackedSource {
        /// Index of the predicate in the chain.
        pred: usize,
        /// Its width in bits.
        bits: u8,
    },
    /// The chain mixes 16-lane (32-bit, packed) and 8-lane (64-bit)
    /// sources; such chains run on the static driver.
    MixedWidths,
    /// The host lacks AVX-512 (or VBMI2, for a chain with a packed source).
    IsaUnavailable,
    /// Mapping the code failed.
    Exec(crate::mem::ExecError),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::BadChainLength(n) => write!(f, "chain length {n} unsupported"),
            JitError::SrcUnsupported(s) => write!(f, "source {s:?} unsupported"),
            JitError::BadPackedSource { pred, bits } => write!(
                f,
                "predicate {pred}: packed source of {bits} bits unsupported \
                 (width 1-32, driver at most 16, literal in domain)"
            ),
            JitError::MixedWidths => write!(f, "chain mixes 32- and 64-bit sources"),
            JitError::IsaUnavailable => write!(f, "AVX-512 (VBMI2 for packed sources) unavailable"),
            JitError::Exec(e) => write!(f, "exec memory: {e}"),
        }
    }
}

impl std::error::Error for JitError {}

impl From<crate::mem::ExecError> for JitError {
    fn from(e: crate::mem::ExecError) -> Self {
        JitError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_capture_bits() {
        let s = ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Ne, 2)], false);
        assert_eq!(s.len(), 2);
        assert_eq!(s.preds[0].needle_bits, 5);
        assert!(!s.emit_positions);

        let s = ScanSig::typed(&[(CmpOp::Lt, -1i32)], true);
        assert_eq!(s.preds[0].needle_bits, u32::MAX as u64);
        assert_eq!(s.preds[0].src, JitSrc::Plain(JitElem::I32));

        let s = ScanSig::typed(&[(CmpOp::Ge, 1.5f32)], true);
        assert_eq!(s.preds[0].needle_bits, 1.5f32.to_bits() as u64);

        let s = ScanSig::typed(&[(CmpOp::Gt, u64::MAX - 1)], false);
        assert_eq!(s.preds[0].needle_bits, u64::MAX - 1);
        assert_eq!(s.lanes(), 8);

        let s = ScanSig::typed(&[(CmpOp::Le, -2.5f64)], false);
        assert_eq!(s.preds[0].needle_bits, (-2.5f64).to_bits());

        // A chain's signature carries each predicate's source kind.
        let a = [1u32, 2];
        let col = fts_storage::PackedColumn::pack(&[1, 2], 3).unwrap();
        let chain = [
            ChainPred::Packed {
                col: &col,
                op: CmpOp::Eq,
                needle: 2,
            },
            ChainPred::from(fts_core::TypedPred::eq(&a[..], 7)),
        ];
        let s = ScanSig::of_chain(&chain, true);
        assert_eq!(s.preds[0].src, JitSrc::Packed { bits: 3 });
        assert_eq!(s.preds[1], JitPred::plain(CmpOp::Eq, 7u32));
        assert_eq!(s.lanes(), 16);
        assert_eq!(
            s.uniform_elem(),
            Err(JitError::SrcUnsupported(s.preds[0].src))
        );
    }

    #[test]
    fn signature_is_hashable_cache_key() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ScanSig::u32_chain(&[(CmpOp::Eq, 5)], false));
        set.insert(ScanSig::u32_chain(&[(CmpOp::Eq, 5)], false));
        set.insert(ScanSig::u32_chain(&[(CmpOp::Eq, 6)], false));
        set.insert(ScanSig::u32_chain(&[(CmpOp::Eq, 5)], true));
        assert_eq!(set.len(), 3);
        // The source kind is part of the key: the same literal bits over
        // an `i32` column or a packed column are distinct entries.
        set.insert(ScanSig::typed(&[(CmpOp::Eq, 5i32)], false));
        let mut packed = ScanSig::u32_chain(&[(CmpOp::Eq, 5)], false);
        packed.preds[0].src = JitSrc::Packed { bits: 4 };
        set.insert(packed.clone());
        packed.preds[0].src = JitSrc::Packed { bits: 5 };
        set.insert(packed);
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn kernel_args_layout_is_stable() {
        assert_eq!(std::mem::offset_of!(KernelArgs, cols), 0);
        assert_eq!(std::mem::offset_of!(KernelArgs, rows), 64);
        assert_eq!(std::mem::offset_of!(KernelArgs, out), 72);
        assert_eq!(std::mem::size_of::<KernelArgs>(), 80);
    }
}
