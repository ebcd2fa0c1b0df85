//! Source-level code generation — the paper's chosen abstraction level.
//!
//! §V weighs three levels for the generated operator: C(++), LLVM IR, and
//! ASM, and picks C++ ("automatic register allocation and type safety …
//! easier to write and maintain"). This module reproduces that generator:
//! it instantiates the fused-scan code template for one [`ScanSig`],
//! substituting the data-type suffixes (`_epi32` vs `_ps`), the comparison
//! intrinsics, the literal values and the chain length — the exact
//! substitutions §V lists. The machine-code backends in this crate are the
//! "ASM level" alternative; both exist so the `jit_explorer` example can
//! show the two artifacts side by side.
//!
//! When a C++ compiler is installed, the test suite syntax-checks the
//! generated source with `-mavx512f -mavx512vl`.

use std::fmt::Write as _;

use fts_storage::CmpOp;

use crate::ir::{JitElem, JitError, JitSrc, ScanSig, MAX_JIT_PREDICATES};

/// Why generating all variants statically is infeasible (§V): ten data
/// types × six comparison operators per predicate position.
pub fn static_variant_count(predicates: u32) -> u64 {
    60u64.pow(predicates)
}

fn cpp_type(elem: JitElem) -> &'static str {
    match elem {
        JitElem::U32 => "uint32_t",
        JitElem::I32 => "int32_t",
        JitElem::F32 => "float",
        _ => unreachable!("generator covers the 4-byte kinds"),
    }
}

fn literal(elem: JitElem, bits: u32) -> String {
    match elem {
        JitElem::U32 => format!("{bits}u"),
        JitElem::I32 => format!("{}", bits as i32),
        // Bit-exact float literal via memcpy-free bit cast.
        JitElem::F32 => format!("std::bit_cast<float>(0x{bits:08x}u)"),
        _ => unreachable!("generator covers the 4-byte kinds"),
    }
}

fn set1(elem: JitElem, bits: u32) -> String {
    match elem {
        JitElem::U32 => format!("_mm512_set1_epi32((int32_t){bits}u)"),
        JitElem::I32 => format!("_mm512_set1_epi32({})", bits as i32),
        JitElem::F32 => format!(
            "_mm512_castps_si512(_mm512_set1_ps({}))",
            literal(elem, bits)
        ),
        _ => unreachable!("generator covers the 4-byte kinds"),
    }
}

/// The compare intrinsic for one predicate, on values held in `__m512i`.
fn cmp_call(elem: JitElem, op: CmpOp, masked: bool, mask: &str, a: &str, b: &str) -> String {
    match elem {
        JitElem::U32 | JitElem::I32 => {
            let sign = if elem == JitElem::U32 {
                "epu32"
            } else {
                "epi32"
            };
            let name = match op {
                CmpOp::Eq => "cmpeq",
                CmpOp::Ne => "cmpneq",
                CmpOp::Lt => "cmplt",
                CmpOp::Le => "cmple",
                CmpOp::Gt => "cmpgt",
                CmpOp::Ge => "cmpge",
            };
            if masked {
                format!("_mm512_mask_{name}_{sign}_mask({mask}, {a}, {b})")
            } else {
                format!("_mm512_{name}_{sign}_mask({a}, {b})")
            }
        }
        JitElem::F32 => {
            let pred = match op {
                CmpOp::Eq => "_CMP_EQ_OQ",
                CmpOp::Ne => "_CMP_NEQ_OQ",
                CmpOp::Lt => "_CMP_LT_OS",
                CmpOp::Le => "_CMP_LE_OS",
                CmpOp::Gt => "_CMP_GT_OS",
                CmpOp::Ge => "_CMP_GE_OS",
            };
            let fa = format!("_mm512_castsi512_ps({a})");
            let fb = format!("_mm512_castsi512_ps({b})");
            if masked {
                format!("_mm512_mask_cmp_ps_mask({mask}, {fa}, {fb}, {pred})")
            } else {
                format!("_mm512_cmp_ps_mask({fa}, {fb}, {pred})")
            }
        }
        _ => unreachable!("generator covers the 4-byte kinds"),
    }
}

/// Generate the specialized C++ source for `sig` — the artifact the
/// paper's JIT pipeline would hand to the compiler.
pub fn generate_cpp(sig: &ScanSig) -> Result<String, JitError> {
    if sig.is_empty() || sig.len() > MAX_JIT_PREDICATES {
        return Err(JitError::BadChainLength(sig.len()));
    }
    let elem = sig.uniform_elem()?;
    if elem.lanes() == 8 {
        // The C++ template mirrors the paper's 4-byte running example; the
        // machine-code backend covers the 8-byte and packed kinds.
        return Err(JitError::SrcUnsupported(JitSrc::Plain(elem)));
    }
    let p = sig.len();
    let ty = cpp_type(elem);
    let mut s = String::new();
    let w = &mut s;

    let _ = writeln!(w, "// Generated by fts-jit::source_gen — do not edit.");
    let _ = writeln!(w, "// Chain: {} predicate(s) over {ty} columns.", p);
    let _ = writeln!(w, "#include <immintrin.h>");
    let _ = writeln!(w, "#include <cstdint>");
    if elem == JitElem::F32 {
        let _ = writeln!(w, "#include <bit>");
    }
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "extern \"C\" uint64_t fused_scan(const {ty}* const* cols, uint64_t rows,"
    );
    let _ = writeln!(
        w,
        "                               uint32_t* out /* nullptr => count */) {{"
    );
    let _ = writeln!(
        w,
        "    const __m512i iota = _mm512_setr_epi32(0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15);"
    );
    for (i, pred) in sig.preds.iter().enumerate() {
        let _ = writeln!(
            w,
            "    const __m512i needle{i} = {}; // {} {}",
            set1(elem, pred.needle_bits as u32),
            pred.op,
            literal(elem, pred.needle_bits as u32)
        );
    }
    for s_idx in 1..p {
        let _ = writeln!(
            w,
            "    __m512i plist{s_idx} = _mm512_setzero_si512(); size_t count{s_idx} = 0;"
        );
    }
    let _ = writeln!(w, "    uint64_t total = 0;");
    let _ = writeln!(w);

    // Per-stage flush lambdas, innermost (last predicate) first, so each
    // lambda can reference the next stage's by name.
    for s_idx in (1..p).rev() {
        let _ = writeln!(w, "    auto flush{s_idx} = [&]() {{");
        let _ = writeln!(w, "        if (count{s_idx} == 0) return;");
        let _ = writeln!(
            w,
            "        const __mmask16 live = (__mmask16)((1u << count{s_idx}) - 1);"
        );
        let _ = writeln!(w, "        count{s_idx} = 0;");
        let _ = writeln!(
            w,
            "        const __m512i vals = _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), live, plist{s_idx}, cols[{s_idx}], 4);"
        );
        let _ = writeln!(
            w,
            "        const __mmask16 hit = {};",
            cmp_call(
                elem,
                sig.preds[s_idx].op,
                true,
                "live",
                "vals",
                &format!("needle{s_idx}")
            )
        );
        let _ = writeln!(w, "        if (hit == 0) return;");
        let _ = writeln!(
            w,
            "        const __m512i survivors = _mm512_maskz_compress_epi32(hit, plist{s_idx});"
        );
        let _ = writeln!(
            w,
            "        const unsigned m = (unsigned)_mm_popcnt_u32(hit);"
        );
        if s_idx == p - 1 {
            let _ = writeln!(
                w,
                "        if (out) _mm512_storeu_si512(out + total, survivors);"
            );
            let _ = writeln!(w, "        total += m;");
        } else {
            let _ = writeln!(w, "        append{0}(survivors, m, flush{0}());", s_idx + 1);
        }
        let _ = writeln!(w, "    }};");
    }

    // Append helpers (the push discipline of §III).
    if p > 1 {
        let _ = writeln!(w);
        let _ = writeln!(
            w,
            "    // §III append discipline: flush the incomplete list first when"
        );
        let _ = writeln!(
            w,
            "    // a batch does not fit, flush again when the list fills up."
        );
    }

    let _ = writeln!(w, "    const uint64_t full = rows / 16 * 16;");
    let _ = writeln!(w, "    for (uint64_t base = 0; base < full; base += 16) {{");
    let _ = writeln!(
        w,
        "        const __m512i block = _mm512_loadu_si512((const void*)(cols[0] + base));"
    );
    let _ = writeln!(
        w,
        "        const __mmask16 k = {};",
        cmp_call(elem, sig.preds[0].op, false, "", "block", "needle0")
    );
    let _ = writeln!(w, "        if (k == 0) continue;");
    let _ = writeln!(
        w,
        "        const __m512i idx = _mm512_add_epi32(iota, _mm512_set1_epi32((int)base));"
    );
    let _ = writeln!(
        w,
        "        const __m512i fresh = _mm512_maskz_compress_epi32(k, idx);"
    );
    let _ = writeln!(w, "        const unsigned m = (unsigned)_mm_popcnt_u32(k);");
    if p == 1 {
        let _ = writeln!(
            w,
            "        if (out) _mm512_storeu_si512(out + total, fresh);"
        );
        let _ = writeln!(w, "        total += m;");
    } else {
        let _ = writeln!(w, "        append1(fresh, m, flush1());");
    }
    let _ = writeln!(w, "    }}");
    let _ = writeln!(w, "    // Drain partial lists, then the scalar tail.");
    for s_idx in 1..p {
        let _ = writeln!(w, "    flush{s_idx}();");
    }
    let _ = writeln!(w, "    for (uint64_t row = full; row < rows; ++row) {{");
    let conds: Vec<String> = sig
        .preds
        .iter()
        .enumerate()
        .map(|(i, pred)| scalar_cond(elem, i, pred.op, pred.needle_bits as u32))
        .collect();
    let _ = writeln!(w, "        if ({}) {{", conds.join(" && "));
    let _ = writeln!(w, "            if (out) out[total] = (uint32_t)row;");
    let _ = writeln!(w, "            ++total;");
    let _ = writeln!(w, "        }}");
    let _ = writeln!(w, "    }}");
    let _ = writeln!(w, "    return total;");
    let _ = writeln!(w, "}}");

    // NOTE: the append helpers are emitted as a preamble because the
    // lambdas above reference them; assemble the final file.
    let mut preamble = String::new();
    if p > 1 {
        let _ = writeln!(
            preamble,
            "// Append helpers are generated as macros so each call site"
        );
        let _ = writeln!(
            preamble,
            "// inlines the merge with a compile-time stage number."
        );
        for s_idx in 1..p {
            let _ = writeln!(
                preamble,
                "#define append{s_idx}(fresh, m, ...) do {{ \\\n    if (count{s_idx} + (m) > 16) {{ __VA_ARGS__; plist{s_idx} = (fresh); count{s_idx} = (m); }} \\\n    else {{ \\\n        const __m512i ctl = _mm512_loadu_si512((const void*)MERGE16[count{s_idx}]); \\\n        plist{s_idx} = _mm512_permutex2var_epi32(plist{s_idx}, ctl, (fresh)); \\\n        count{s_idx} += (m); \\\n    }} \\\n    if (count{s_idx} == 16) {{ __VA_ARGS__; }} \\\n}} while (0)"
            );
        }
        let _ = writeln!(preamble, "static const uint32_t MERGE16[17][16] = {{");
        for c in 0..=16u32 {
            let row: Vec<String> = (0..16u32)
                .map(|i| {
                    if i < c {
                        i.to_string()
                    } else {
                        (16 + i - c).to_string()
                    }
                })
                .collect();
            let _ = writeln!(preamble, "    {{{}}},", row.join(","));
        }
        let _ = writeln!(preamble, "}};");
        let _ = writeln!(preamble);
    }

    // Splice the preamble after the includes.
    let insert_at = s
        .find("extern \"C\"")
        .expect("template contains entry point");
    let mut out = String::with_capacity(s.len() + preamble.len());
    out.push_str(&s[..insert_at]);
    out.push_str(&preamble);
    out.push_str(&s[insert_at..]);
    Ok(out)
}

fn scalar_cond(elem: JitElem, i: usize, op: CmpOp, bits: u32) -> String {
    let lit = literal(elem, bits);
    format!("cols[{i}][row] {} {lit}", op_cpp(op))
}

fn op_cpp(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_explosion_matches_paper() {
        // §V: "ten data types and six comparison operators … sixty
        // instantiations … 3600 possibilities for two predicates."
        assert_eq!(static_variant_count(1), 60);
        assert_eq!(static_variant_count(2), 3600);
        assert_eq!(static_variant_count(3), 216_000);
    }

    #[test]
    fn generated_source_contains_specializations() {
        let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Lt, 99)], true);
        let src = generate_cpp(&sig).unwrap();
        assert!(
            src.contains("_mm512_set1_epi32((int32_t)5u)"),
            "needle 5 embedded"
        );
        assert!(
            src.contains("_mm512_cmpeq_epu32_mask"),
            "driver compare specialized"
        );
        assert!(
            src.contains("_mm512_mask_cmplt_epu32_mask"),
            "follow-up compare specialized"
        );
        assert!(src.contains("_mm512_maskz_compress_epi32"));
        assert!(src.contains("_mm512_mask_i32gather_epi32"));
        assert!(src.contains("_mm512_permutex2var_epi32"));
        assert!(src.contains("MERGE16"));
    }

    #[test]
    fn float_generator_uses_ps_intrinsics() {
        let sig = ScanSig::typed(&[(CmpOp::Ge, 1.5f32)], false);
        let src = generate_cpp(&sig).unwrap();
        assert!(src.contains("_mm512_cmp_ps_mask"));
        assert!(src.contains("_CMP_GE_OS"));
        assert!(src.contains("bit_cast<float>"));
    }

    #[test]
    fn rejects_bad_chains() {
        assert!(generate_cpp(&ScanSig::u32_chain(&[], false)).is_err());
        assert!(generate_cpp(&ScanSig::typed(&[(CmpOp::Eq, 1u64)], false)).is_err());
        let mut packed = ScanSig::u32_chain(&[(CmpOp::Eq, 1)], false);
        packed.preds[0].src = JitSrc::Packed { bits: 4 };
        assert!(generate_cpp(&packed).is_err());
    }

    /// Compile-check the generated C++ with the system compiler, skipping
    /// when none is installed.
    #[test]
    fn generated_source_compiles() {
        let Ok(gpp) = which_gpp() else {
            eprintln!("no g++ — skipping syntax check");
            return;
        };
        for sig in [
            ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true),
            ScanSig::u32_chain(&[(CmpOp::Ne, 1)], false),
            ScanSig::typed(&[(CmpOp::Lt, -3i32), (CmpOp::Ge, 0), (CmpOp::Ne, 7)], true),
            ScanSig::typed(&[(CmpOp::Le, 2.5f32), (CmpOp::Gt, 0.0)], true),
        ] {
            let src = generate_cpp(&sig).unwrap();
            let dir = std::env::temp_dir();
            let path = dir.join(format!("fts-gen-{}-{}.cpp", std::process::id(), sig.len()));
            std::fs::write(&path, &src).unwrap();
            let out = std::process::Command::new(&gpp)
                .args([
                    "-std=c++20",
                    "-fsyntax-only",
                    "-mavx512f",
                    "-mavx512vl",
                    "-mpopcnt",
                ])
                .arg(&path)
                .output()
                .expect("g++ runs");
            let _ = std::fs::remove_file(&path);
            assert!(
                out.status.success(),
                "g++ rejected generated source:\n{}\n--- source ---\n{src}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }

    fn which_gpp() -> Result<String, ()> {
        for c in ["g++", "clang++"] {
            if std::process::Command::new(c)
                .arg("--version")
                .output()
                .map(|o| o.status.success())
                .unwrap_or(false)
            {
                return Ok(c.to_string());
            }
        }
        Err(())
    }
}
