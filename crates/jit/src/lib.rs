//! # fts-jit — runtime code generation for the Fused Table Scan
//!
//! Paper §V: the fused operator's code depends on runtime parameters (data
//! types, comparison operators, literals, chain length) whose static cross
//! product is infeasible, so the DBMS generates the code at query time.
//! This crate is that JIT layer:
//!
//! * [`asm`] — a from-scratch x86-64 emitter (legacy, VEX-opmask and
//!   EVEX/AVX-512 encodings), cross-validated against binutils;
//! * [`mem`] — W^X executable memory via raw Linux syscalls;
//! * [`ir`] — the chain signature ([`ScanSig`]: per predicate a plain
//!   32-bit, plain 64-bit or bit-packed source, the same kinds
//!   `fts_core::ChainPred` binds) and kernel ABI;
//! * [`compile_scalar`] — specialized tuple-at-a-time code (§II's loop);
//! * [`compile_avx512`] — the one EVEX code generator: the fused scan of
//!   Fig. 3 for 16-lane (32-bit and bit-packed, §VII) and 8-lane (64-bit)
//!   chains, with per-width unpack constants baked into the code;
//! * [`kernel`] — [`CompiledKernel`], the one safe wrapper: it runs a
//!   kernel over the driver's `&[ChainPred]`, validates the chain against
//!   the signature and handles the rows past the last full block;
//! * [`cache`] — the compiled-kernel cache ("especially when compiled
//!   operators are cached for future use, we do not see the additional
//!   compile time as a deciding bottleneck", §V);
//! * [`source_gen`] — the C++ code-template generator the paper's Hyrise
//!   prototype uses, reproduced as a text artifact.

#![warn(missing_docs)]

pub mod asm;
pub mod cache;
pub mod compile_avx512;
pub mod compile_scalar;
pub mod ir;
pub mod kernel;
pub mod mem;
pub mod source_gen;

pub use cache::{CacheStats, KernelCache};
pub use ir::{
    JitElem, JitError, JitPred, JitSrc, KernelArgs, KernelFn, ScanSig, MAX_JIT_PREDICATES,
};
pub use kernel::{CompiledKernel, JitBackend};
pub use mem::{ExecBuf, ExecError};
