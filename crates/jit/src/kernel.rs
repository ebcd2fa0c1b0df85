//! Safe wrappers around compiled kernels.
//!
//! A [`CompiledKernel`] owns the executable code for one [`ScanSig`] and
//! exposes a validated, safe `run` API over the same `&[ChainPred]` the
//! static driver takes: it checks that the chain's signature equals the
//! kernel's and that the columns agree on their length, allocates the
//! position buffer with the slack the vector stores need, and (for the
//! AVX-512 backend) evaluates the rows past the last full block after the
//! kernel's drain so emitted positions stay ascending.

use std::time::{Duration, Instant};

use fts_core::{ChainPred, OutputMode, ScanOutput};
use fts_simd::has_avx512;
use fts_storage::PosList;

use crate::compile_avx512::compile_avx512;
use crate::compile_scalar::compile_scalar;
use crate::ir::{JitError, JitPred, JitSrc, KernelArgs, KernelFn, ScanSig};
use crate::mem::ExecBuf;

/// Which code generator produced a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JitBackend {
    /// Specialized tuple-at-a-time loop (§II's code with immediates).
    Scalar,
    /// The fused AVX-512 scan of Fig. 3.
    Avx512,
}

/// Errors when running a compiled kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The chain's signature (predicate count, source kinds, operators or
    /// literals) differs from the kernel's.
    SigMismatch,
    /// Columns have different lengths.
    LengthMismatch,
    /// The rows (or, for a packed column, `rows * bits`) exceed the
    /// 32-bit index range the gathers use.
    TooLarge,
    /// The kernel was compiled in count mode but positions were requested
    /// (the signature fixes the output mode).
    ModeMismatch,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::SigMismatch => write!(f, "chain does not match the kernel's signature"),
            RunError::LengthMismatch => write!(f, "columns have different lengths"),
            RunError::TooLarge => write!(f, "column exceeds the 32-bit index range"),
            RunError::ModeMismatch => write!(f, "kernel compiled for the other output mode"),
        }
    }
}

impl std::error::Error for RunError {}

/// Base address the kernel reads a predicate's column from.
fn column_base(pred: &ChainPred<'_>) -> *const u8 {
    match pred {
        ChainPred::U32(p) => p.data.as_ptr().cast(),
        ChainPred::I32(p) => p.data.as_ptr().cast(),
        ChainPred::F32(p) => p.data.as_ptr().cast(),
        ChainPred::U64(p) => p.data.as_ptr().cast(),
        ChainPred::I64(p) => p.data.as_ptr().cast(),
        ChainPred::F64(p) => p.data.as_ptr().cast(),
        ChainPred::Packed { col, .. } => col.words().as_ptr().cast(),
    }
}

/// One JIT-compiled scan kernel, ready to execute.
///
/// ```
/// use fts_core::{ChainPred, TypedPred};
/// use fts_jit::{CompiledKernel, JitBackend, ScanSig};
/// use fts_storage::CmpOp;
///
/// // Specialize §II's loop for `a = 5 AND b = 1` (needles become
/// // immediates in the emitted machine code).
/// let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Eq, 1)], false);
/// let kernel = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
/// let a: Vec<u32> = (0..100).map(|i| i % 10).collect();
/// let b: Vec<u32> = (0..100).map(|i| i % 4).collect();
/// let chain = [
///     ChainPred::from(TypedPred::eq(&a[..], 5)),
///     ChainPred::from(TypedPred::eq(&b[..], 1)),
/// ];
/// assert_eq!(kernel.run(&chain).unwrap().count(), 5);
/// ```
pub struct CompiledKernel {
    sig: ScanSig,
    backend: JitBackend,
    buf: ExecBuf,
    compile_time: Duration,
}

impl CompiledKernel {
    /// Generate and map the code for `sig` with the chosen backend.
    ///
    /// The AVX-512 backend refuses to compile on hosts without AVX-512
    /// (and VBMI2, when a source is packed), so a successfully compiled
    /// kernel is always runnable.
    pub fn compile(sig: ScanSig, backend: JitBackend) -> Result<CompiledKernel, JitError> {
        let start = Instant::now();
        let code = match backend {
            JitBackend::Scalar => compile_scalar(&sig)?,
            JitBackend::Avx512 => {
                let packed = sig
                    .preds
                    .iter()
                    .any(|p| matches!(p.src, JitSrc::Packed { .. }));
                if !has_avx512() || (packed && !has_vbmi2()) {
                    return Err(JitError::IsaUnavailable);
                }
                compile_avx512(&sig)?
            }
        };
        let buf = ExecBuf::new(&code)?;
        Ok(CompiledKernel {
            sig,
            backend,
            buf,
            compile_time: start.elapsed(),
        })
    }

    /// The signature the kernel was specialized for.
    pub fn sig(&self) -> &ScanSig {
        &self.sig
    }

    /// Which backend emitted the code.
    pub fn backend(&self) -> JitBackend {
        self.backend
    }

    /// Code generation + mapping time (the cost the kernel cache amortizes).
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// The machine code (for disassembly, e.g. the `jit_explorer` example).
    pub fn machine_code(&self) -> &[u8] {
        self.buf.code()
    }

    /// Disassemble the kernel with binutils `objdump`, if installed.
    /// Returns Intel-syntax assembly, one instruction per line.
    pub fn disassemble(&self) -> Option<String> {
        use std::io::Write as _;
        let path = std::env::temp_dir().join(format!(
            "fts-jit-disasm-{}-{:p}.bin",
            std::process::id(),
            self.buf.code()
        ));
        let mut f = std::fs::File::create(&path).ok()?;
        f.write_all(self.buf.code()).ok()?;
        drop(f);
        let out = std::process::Command::new("objdump")
            .args(["-D", "-b", "binary", "-m", "i386:x86-64", "-M", "intel"])
            .arg(&path)
            .output();
        let _ = std::fs::remove_file(&path);
        let out = out.ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let body: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("<.data>:"))
            .skip(1)
            .collect();
        Some(body.join("\n"))
    }

    /// Execute the kernel over `chain`, whose signature must equal the
    /// kernel's. The output mode is fixed by the signature
    /// (`emit_positions`).
    pub fn run(&self, chain: &[ChainPred<'_>]) -> Result<ScanOutput, RunError> {
        if chain.len() != self.sig.len()
            || chain
                .iter()
                .zip(&self.sig.preds)
                .any(|(c, p)| JitPred::of(c) != *p)
        {
            return Err(RunError::SigMismatch);
        }
        let rows = chain[0].rows();
        if chain.iter().any(|p| p.rows() != rows) {
            return Err(RunError::LengthMismatch);
        }
        let packed_too_large =
            |p: &ChainPred<'_>| p.is_packed() && rows as u64 * p.bits_per_row() >= 1 << 31;
        if rows > i32::MAX as usize || chain.iter().any(packed_too_large) {
            return Err(RunError::TooLarge);
        }

        // The AVX-512 kernel consumes whole blocks of the chain's lane
        // count; the scalar kernel consumes every row.
        let rows_kernel = match self.backend {
            JitBackend::Scalar => rows,
            JitBackend::Avx512 => rows / self.sig.lanes() * self.sig.lanes(),
        };

        let mut out: Vec<u32> = if self.sig.emit_positions {
            // Slack for the full-register position stores.
            vec![0; rows_kernel + 16]
        } else {
            Vec::new()
        };
        let mut args = KernelArgs {
            cols: [std::ptr::null(); 8],
            rows: rows_kernel as u64,
            out: if self.sig.emit_positions {
                out.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
        };
        for (col, pred) in args.cols.iter_mut().zip(chain) {
            *col = column_base(pred);
        }
        // SAFETY: the code was generated for exactly this signature; the
        // columns were validated above (packed columns carry the guard
        // word the gathers read); `out` has the required slack; compile
        // verified ISA support.
        let f: KernelFn = unsafe { std::mem::transmute(self.buf.entry()) };
        // SAFETY: see above.
        let mut count = unsafe { f(&args) };
        out.truncate(count as usize);

        // Tail rows (AVX-512 backend only): evaluated after the kernel's
        // drain, so appended positions remain ascending.
        for row in rows_kernel..rows {
            if chain.iter().all(|p| p.matches(row)) {
                count += 1;
                if self.sig.emit_positions {
                    out.push(row as u32);
                }
            }
        }

        Ok(if self.sig.emit_positions {
            ScanOutput::Positions(PosList::from_vec(out))
        } else {
            ScanOutput::Count(count)
        })
    }

    /// Convenience: run and coerce into the requested [`OutputMode`]
    /// (positions kernels can serve count queries; not vice versa).
    pub fn run_mode(
        &self,
        chain: &[ChainPred<'_>],
        mode: OutputMode,
    ) -> Result<ScanOutput, RunError> {
        let out = self.run(chain)?;
        match (mode, out) {
            (OutputMode::Count, o) => Ok(ScanOutput::Count(o.count())),
            (OutputMode::Positions, o @ ScanOutput::Positions(_)) => Ok(o),
            (OutputMode::Positions, ScanOutput::Count(_)) => Err(RunError::ModeMismatch),
        }
    }
}

fn has_vbmi2() -> bool {
    std::arch::is_x86_feature_detected!("avx512vbmi2")
}

impl std::fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledKernel({:?}, {} preds, {} bytes, compiled in {:?})",
            self.backend,
            self.sig.len(),
            self.buf.code_len(),
            self.compile_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_core::TypedPred;
    use fts_storage::CmpOp;

    fn eq<'a, T: fts_storage::NativeType>(data: &'a [T], needle: T) -> ChainPred<'a>
    where
        TypedPred<'a, T>: Into<ChainPred<'a>>,
    {
        TypedPred::eq(data, needle).into()
    }

    #[test]
    fn scalar_backend_end_to_end() {
        let a: Vec<u32> = (0..1003).map(|i| i % 10).collect();
        let b: Vec<u32> = (0..1003).map(|i| i % 4).collect();
        let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true);
        let k = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
        let out = k.run(&[eq(&a, 5), eq(&b, 2)]).unwrap();
        let expected: Vec<u32> = (0..1003u32)
            .filter(|&i| a[i as usize] == 5 && b[i as usize] == 2)
            .collect();
        assert_eq!(out.positions().unwrap().as_slice(), &expected[..]);
        assert!(k.compile_time() < Duration::from_secs(1));
        assert!(!k.machine_code().is_empty());
    }

    #[test]
    fn avx512_backend_handles_tails() {
        if !has_avx512() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        for rows in [0usize, 1, 15, 16, 17, 1003] {
            let a: Vec<u32> = (0..rows as u32).map(|i| i % 3).collect();
            let b: Vec<u32> = (0..rows as u32).map(|i| i % 2).collect();
            let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 0), (CmpOp::Eq, 1)], true);
            let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
            let out = k.run(&[eq(&a, 0), eq(&b, 1)]).unwrap();
            let expected: Vec<u32> = (0..rows as u32)
                .filter(|&i| a[i as usize] == 0 && b[i as usize] == 1)
                .collect();
            assert_eq!(
                out.positions().unwrap().as_slice(),
                &expected[..],
                "rows={rows}"
            );
        }
    }

    #[test]
    fn avx512_w64_backend_handles_tails() {
        if !has_avx512() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        for rows in [0usize, 1, 7, 8, 9, 505] {
            let a: Vec<u64> = (0..rows as u64).map(|i| i % 3).collect();
            let b: Vec<f64> = (0..rows).map(|i| (i % 2) as f64).collect();
            let sig = ScanSig::typed(&[(CmpOp::Eq, 0u64)], true);
            let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
            let out = k.run(&[eq(&a, 0)]).unwrap();
            let expected: Vec<u32> = (0..rows as u32).filter(|&i| a[i as usize] == 0).collect();
            assert_eq!(
                out.positions().unwrap().as_slice(),
                &expected[..],
                "rows={rows}"
            );

            let sig = ScanSig::typed(&[(CmpOp::Eq, 1.0f64)], false);
            let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
            let expected = b.iter().filter(|&&v| v == 1.0).count() as u64;
            assert_eq!(
                k.run(&[eq(&b, 1.0)]).unwrap().count(),
                expected,
                "rows={rows}"
            );
        }
    }

    #[test]
    fn validation_errors() {
        let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], false);
        let k = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
        let a = [1u32, 2];
        let b = [1u32];
        // Wrong predicate count, source kind, operator or literal.
        assert_eq!(k.run(&[eq(&a, 5)]).unwrap_err(), RunError::SigMismatch);
        let ai = [1i32, 2];
        assert_eq!(
            k.run(&[eq(&ai, 5), eq(&ai, 2)]).unwrap_err(),
            RunError::SigMismatch
        );
        assert_eq!(
            k.run(&[eq(&a, 5), eq(&a, 3)]).unwrap_err(),
            RunError::SigMismatch
        );
        assert_eq!(
            k.run(&[eq(&a, 5), eq(&b, 2)]).unwrap_err(),
            RunError::LengthMismatch
        );

        // Count-mode kernel cannot serve position queries.
        let chain = [eq(&a, 5), eq(&a, 2)];
        let out = k.run(&chain).unwrap();
        assert!(matches!(out, ScanOutput::Count(_)));
        assert_eq!(
            k.run_mode(&chain, OutputMode::Positions).unwrap_err(),
            RunError::ModeMismatch
        );
    }

    #[test]
    fn disassemble_produces_assembly_when_objdump_exists() {
        let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 5)], false);
        let k = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
        match k.disassemble() {
            Some(asm) => {
                assert!(asm.contains("ret"), "{asm}");
                assert!(asm.contains("cmp"), "{asm}");
            }
            None => eprintln!("objdump unavailable — skipping"),
        }
    }

    #[test]
    fn count_mode_agrees_with_positions_mode() {
        if !has_avx512() {
            return;
        }
        let a: Vec<u32> = (0..500).map(|i| i % 7).collect();
        let chain = [ChainPred::from(TypedPred::new(&a[..], CmpOp::Lt, 3))];
        let kc = CompiledKernel::compile(
            ScanSig::u32_chain(&[(CmpOp::Lt, 3)], false),
            JitBackend::Avx512,
        )
        .unwrap();
        let kp =
            CompiledKernel::compile(ScanSig::of_chain(&chain, true), JitBackend::Avx512).unwrap();
        let c = kc.run(&chain).unwrap().count();
        let p = kp.run(&chain).unwrap();
        assert_eq!(c, p.count());
        // A positions kernel can serve count queries.
        assert_eq!(kp.run_mode(&chain, OutputMode::Count).unwrap().count(), c);
    }
}
