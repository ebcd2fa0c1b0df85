//! The AVX-512 JIT backend: emits the Fused Table Scan of paper Fig. 3 as
//! native EVEX machine code, fully specialized for one chain signature —
//! needles are embedded immediates, comparison operators are `vpcmp`
//! predicate immediates, packed widths are unpack constants, the chain
//! length is unrolled into the code, and the per-stage dispatch `match`es
//! of the static driver disappear entirely. This is precisely the code §V
//! argues must be generated at runtime: with 10 data types × 6 operators
//! per predicate, two predicates already yield 3600 static variants.
//!
//! ## Emitted code shape
//!
//! One driver loop over blocks (load → `vpcmp` → `kortest` skip →
//! `vpcompressd` of block offsets), an inlined *push* sequence per stage
//! transition, and one *flush* subroutine per follow-up predicate (fetch →
//! masked `vpcmp` → `vpcompressd`), connected by near calls. The caller
//! passes `rows` pre-truncated to a multiple of the lane count; the
//! wrapper evaluates the tail rows after the kernel's drain, preserving
//! ascending position order.
//!
//! The lane count is the only structural parameter. A chain of 32-bit and
//! bit-packed sources runs 16-row blocks with zmm position lists and
//! `MERGE16`; a chain of 64-bit sources runs 8-row blocks with ymm lists,
//! `MERGE8` and `vpgatherdq`. Each stage fetches by its source:
//!
//! * **plain** — a block load as driver, one gather as follower;
//! * **bit-packed** (§VII) — as driver (≤ 16 bits), a masked word load,
//!   two `vpermd` word selections and the VBMI2 funnel shift `vpshrdvd`
//!   driven by per-width tables; as follower, positions × width, two
//!   gathers of each value's word pair (the pack buffer's guard word keeps
//!   `word + 1` readable) and the same funnel shift.
//!
//! ## Register plan
//!
//! | reg | role |
//! |-----|------|
//! | `rdi` | `&KernelArgs` (preserved) |
//! | `rbp` | frame pointer: stage counts and spill slots live below it |
//! | `r8`  | column-0 pointer · `rcx` rows · `rdx` block base row |
//! | `rax` | batch size `m`, mask scratch · `rsi`, `r9`, `r10` scratch |
//! | `r11` | running match count · `rbx` position output base |
//! | `r12` | merge-table base |
//! | `zmm0` | block / gathered values · `zmm1-5` needle splats |
//! | `zmm6` | iota · `zmm7` fresh batch · `zmm8` zero · `zmm9-12` stage position lists |
//! | `zmm13` | merge control · `zmm14` block-offset vector |
//! | `zmm15-17` | packed chains only: splat(31), splat(1), driver value mask |
//! | `k1` | driver mask · `k2` flush mask · `k3` packed driver load mask |

use fts_core::fused::{MERGE16, MERGE8};
use fts_storage::bitpack::mask_of;
use fts_storage::CmpOp;

use crate::asm::{Asm, Cond, Gpr, KReg, Label, Mem, Zmm};
use crate::ir::{JitElem, JitError, JitSrc, ScanSig, MAX_JIT_PREDICATES};

/// Lane masks `(1 << c) - 1` for flush masks, indexed by list length.
static MASK_LUT: [u16; 17] = {
    let mut t = [0u16; 17];
    let mut c = 0;
    while c <= 16 {
        t[c] = if c == 16 { u16::MAX } else { (1u16 << c) - 1 };
        c += 1;
    }
    t
};

/// Block-offset base vector (0..16; 8-lane chains load its low half).
static IOTA16: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// Packed-driver unpack controls for one alignment variant (0 or 16 bits
/// into the first word). Byte offsets inside the struct are part of the
/// emitted code's ABI.
#[repr(C, align(64))]
struct AlignCtl {
    idx_lo: [u32; 16], // +0
    idx_hi: [u32; 16], // +64
    offs: [u32; 16],   // +128
    wmask: u32,        // +192
    _pad: [u32; 15],
}

/// Both alignment variants of one driver width, 256 bytes apart.
#[repr(C, align(64))]
struct DriverTables {
    variants: [AlignCtl; 2],
}

const fn align_ctl(bits: u32, align: u32) -> AlignCtl {
    let mut ctl = AlignCtl {
        idx_lo: [0; 16],
        idx_hi: [0; 16],
        offs: [0; 16],
        wmask: 0,
        _pad: [0; 15],
    };
    let mut i = 0;
    while i < 16 {
        let bit = align + i as u32 * bits;
        ctl.idx_lo[i] = bit / 32;
        ctl.idx_hi[i] = bit / 32 + 1;
        ctl.offs[i] = bit % 32;
        i += 1;
    }
    let wcnt = (align + 16 * bits).div_ceil(32) + 1;
    let wcnt = if wcnt < 16 { wcnt } else { 16 };
    ctl.wmask = (1u32 << wcnt) - 1;
    ctl
}

/// Driver tables for widths 1..=16 (index `bits - 1`).
static DRIVER_TABLES: [DriverTables; 16] = {
    const EMPTY: DriverTables = DriverTables {
        variants: [align_ctl(0, 0), align_ctl(0, 0)],
    };
    let mut t = [EMPTY; 16];
    let mut bits = 1;
    while bits <= 16 {
        t[bits as usize - 1] = DriverTables {
            variants: [align_ctl(bits, 0), align_ctl(bits, 16)],
        };
        bits += 1;
    }
    t
};

// Frame layout (rbp-relative). rbp-8/-16 hold saved rbx/r12.
fn count_off(s: usize) -> i32 {
    -(16 + 8 * s as i32)
}
fn rax_off(s: usize) -> i32 {
    -(48 + 8 * s as i32)
}
fn zmm_off(s: usize) -> i32 {
    -(128 + 64 * s as i32)
}
const FRAME: i32 = 400;

fn needle_reg(pred: usize) -> Zmm {
    Zmm(1 + pred as u8)
}
fn plist_reg(stage: usize) -> Zmm {
    Zmm(8 + stage as u8)
}

/// `vpcmp*` predicate immediate for an operator.
fn cmp_imm(elem: JitElem, op: CmpOp) -> u8 {
    match elem {
        JitElem::U32 | JitElem::I32 | JitElem::U64 | JitElem::I64 => match op {
            CmpOp::Eq => 0,
            CmpOp::Lt => 1,
            CmpOp::Le => 2,
            CmpOp::Ne => 4,
            CmpOp::Ge => 5,
            CmpOp::Gt => 6,
        },
        // vcmpp[sd] ordered quiet/signaling predicates (NaN → false).
        JitElem::F32 | JitElem::F64 => match op {
            CmpOp::Eq => 0x00,
            CmpOp::Lt => 0x01,
            CmpOp::Le => 0x02,
            CmpOp::Ne => 0x0C,
            CmpOp::Ge => 0x0D,
            CmpOp::Gt => 0x0E,
        },
    }
}

/// One kernel under construction: the signature, its lane count and the
/// flush-subroutine labels.
struct Emitter<'s> {
    a: Asm,
    sig: &'s ScanSig,
    /// 8-lane chain (64-bit sources): ymm position lists.
    w8: bool,
    flush: Vec<Label>,
}

impl Emitter<'_> {
    fn lanes(&self) -> i8 {
        if self.w8 {
            8
        } else {
            16
        }
    }

    /// `dst = (vals OP needle)` for predicate `pred`, under `mask`.
    fn cmp(&mut self, pred: usize, dst: KReg, mask: Option<KReg>) {
        let p = self.sig.preds[pred];
        let elem = p.src.elem();
        let (vals, needle, imm) = (Zmm(0), needle_reg(pred), cmp_imm(elem, p.op));
        let a = &mut self.a;
        match elem {
            JitElem::U32 => a.vpcmpud(dst, vals, needle, imm, mask),
            JitElem::I32 => a.vpcmpd(dst, vals, needle, imm, mask),
            JitElem::F32 => a.vcmpps(dst, vals, needle, imm, mask),
            JitElem::U64 => a.vpcmpuq(dst, vals, needle, imm, mask),
            JitElem::I64 => a.vpcmpq(dst, vals, needle, imm, mask),
            JitElem::F64 => a.vcmppd(dst, vals, needle, imm, mask),
        }
    }

    fn store_list(&mut self, mem: Mem, src: Zmm) {
        if self.w8 {
            self.a.vmovdqu32_store_y(mem, src, None);
        } else {
            self.a.vmovdqu32_store(mem, src, None);
        }
    }

    fn load_list(&mut self, dst: Zmm, mem: Mem) {
        if self.w8 {
            self.a.vmovdqu32_load_y(dst, mem, None, false);
        } else {
            self.a.vmovdqu32_load(dst, mem, None, false);
        }
    }

    fn compress_list(&mut self, dst: Zmm, src: Zmm, mask: KReg) {
        if self.w8 {
            self.a.vpcompressd_y(dst, src, mask, true);
        } else {
            self.a.vpcompressd(dst, src, mask, true);
        }
    }

    /// Emit the match output: store the compressed batch (positions mode)
    /// and bump the total. Expects fresh positions in `zmm7`, batch size
    /// in `rax`.
    fn output(&mut self) {
        if self.sig.emit_positions {
            self.store_list(Mem::base_index_scale(Gpr::Rbx, Gpr::R11, 4), Zmm(7));
        }
        self.a.add_r64_r64(Gpr::R11, Gpr::Rax);
    }

    /// Emit the push of the fresh batch (`zmm7`, size `rax`) into stage
    /// `s` (paper §III's append discipline: flush the incomplete list first
    /// when the batch does not fit, flush again when the list becomes
    /// full).
    fn push(&mut self, s: usize) {
        let lanes = self.lanes();
        let fits = self.a.new_label();
        let after = self.a.new_label();
        let skip_full = self.a.new_label();

        let a = &mut self.a;
        a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
        a.mov_r64_r64(Gpr::R9, Gpr::Rsi);
        a.add_r64_r64(Gpr::R9, Gpr::Rax);
        a.cmp_r64_imm8(Gpr::R9, lanes);
        a.jcc(Cond::Be, fits);
        // Overflow: spill the batch, flush the old list, start a new one.
        a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, rax_off(s)), Gpr::Rax);
        self.store_list(Mem::base_disp(Gpr::Rbp, zmm_off(s)), Zmm(7));
        self.a.call(self.flush[s]);
        self.load_list(Zmm(7), Mem::base_disp(Gpr::Rbp, zmm_off(s)));
        let a = &mut self.a;
        a.mov_r64_mem(Gpr::Rax, Mem::base_disp(Gpr::Rbp, rax_off(s)));
        if self.w8 {
            a.vmovdqa32_rr_y(plist_reg(s), Zmm(7));
        } else {
            a.vmovdqa32_rr(plist_reg(s), Zmm(7));
        }
        a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rax);
        a.jmp(after);

        a.bind(fits);
        // Append: ctl = MERGE[count]; plist = vpermt2d(plist, ctl, fresh).
        a.mov_r64_r64(Gpr::R9, Gpr::Rsi);
        a.shl_r64_imm8(Gpr::R9, if self.w8 { 5 } else { 6 });
        self.load_list(Zmm(13), Mem::base_index_scale(Gpr::R12, Gpr::R9, 1));
        let a = &mut self.a;
        if self.w8 {
            a.vpermt2d_y(plist_reg(s), Zmm(13), Zmm(7));
        } else {
            a.vpermt2d(plist_reg(s), Zmm(13), Zmm(7));
        }
        a.add_r64_r64(Gpr::Rsi, Gpr::Rax);
        a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rsi);

        a.bind(after);
        a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
        a.cmp_r64_imm8(Gpr::Rsi, lanes);
        a.jcc(Cond::Ne, skip_full);
        a.call(self.flush[s]);
        a.bind(skip_full);
    }

    /// Forward the compressed survivors of stage `s` (predicate `s`) to
    /// the output or the next stage.
    fn forward(&mut self, s: usize) {
        if s == self.sig.len() - 1 {
            self.output();
        } else {
            self.push(s + 1);
        }
    }

    /// Load driver block `rdx` of column 0 into `zmm0`.
    fn driver_load(&mut self) {
        let a = &mut self.a;
        match self.sig.preds[0].src {
            JitSrc::Plain(_) if self.w8 => {
                a.vmovdqu64_load(
                    Zmm(0),
                    Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 8),
                    None,
                    false,
                );
            }
            JitSrc::Plain(_) => {
                a.vmovdqu32_load(
                    Zmm(0),
                    Mem::base_index_scale(Gpr::R8, Gpr::Rdx, 4),
                    None,
                    false,
                );
            }
            JitSrc::Packed { bits } => {
                let tables = &DRIVER_TABLES[bits as usize - 1];
                // base_bit = rdx * bits; r9 = word index; rax = variant offset.
                a.imul_r64_r64_imm8(Gpr::Rax, Gpr::Rdx, bits as i8);
                a.mov_r64_r64(Gpr::R9, Gpr::Rax);
                a.shr_r64_imm8(Gpr::R9, 5);
                a.and_r64_imm8(Gpr::Rax, 31);
                a.shr_r64_imm8(Gpr::Rax, 4);
                a.shl_r64_imm8(Gpr::Rax, 8); // × 256 = sizeof(AlignCtl)
                a.mov_r64_imm64(Gpr::R10, tables as *const DriverTables as u64);
                a.add_r64_r64(Gpr::R10, Gpr::Rax);
                // Masked word load, then permute/funnel unpack.
                a.movzx_r32_m16(Gpr::Rax, Mem::base_disp(Gpr::R10, 192));
                a.kmovw_k_r32(KReg(3), Gpr::Rax);
                a.vmovdqu32_load(
                    Zmm(0),
                    Mem::base_index_scale(Gpr::R8, Gpr::R9, 4),
                    Some(KReg(3)),
                    true,
                );
                a.vmovdqu32_load(Zmm(13), Mem::base(Gpr::R10), None, false);
                a.vpermd(Zmm(14), Zmm(13), Zmm(0)); // lo words
                a.vmovdqu32_load(Zmm(13), Mem::base_disp(Gpr::R10, 64), None, false);
                a.vpermd(Zmm(13), Zmm(13), Zmm(0)); // hi words
                a.vmovdqu32_load(Zmm(0), Mem::base_disp(Gpr::R10, 128), None, false); // offs
                a.vpshrdvd(Zmm(14), Zmm(13), Zmm(0));
                a.vpandd(Zmm(14), Zmm(14), Zmm(17));
                a.vmovdqa32_rr(Zmm(0), Zmm(14)); // values where the cmp expects them
            }
        }
    }

    /// Fetch column `s` at the pending positions of stage `s` into `zmm0`
    /// (masked lanes only). Expects the column base in `r10`, the lane
    /// mask in `k2` and `eax`; gathers consume `k2`, so it is rebuilt from
    /// `eax` after each one.
    fn gather(&mut self, s: usize) {
        let a = &mut self.a;
        match self.sig.preds[s].src {
            JitSrc::Plain(_) => {
                a.vpxord(Zmm(0), Zmm(0), Zmm(0));
                if self.w8 {
                    // Dword positions fetch qword values (scale 8).
                    a.vpgatherdq(Zmm(0), Gpr::R10, plist_reg(s), 8, KReg(2));
                } else {
                    a.vpgatherdd(Zmm(0), Gpr::R10, plist_reg(s), 4, KReg(2));
                }
                a.kmovw_k_r32(KReg(2), Gpr::Rax);
            }
            JitSrc::Packed { bits } => {
                // bit = pos * bits; widx = bit >> 5; off = bit & 31.
                a.mov_r32_imm32(Gpr::Rsi, bits as u32);
                a.vpbroadcastd_r32(Zmm(13), Gpr::Rsi);
                a.vpmulld(Zmm(14), plist_reg(s), Zmm(13));
                a.vpsrld_imm(Zmm(13), Zmm(14), 5);
                a.vpandd(Zmm(14), Zmm(14), Zmm(15)); // & 31
                                                     // lo = words[widx].
                a.vpxord(Zmm(0), Zmm(0), Zmm(0));
                a.vpgatherdd(Zmm(0), Gpr::R10, Zmm(13), 4, KReg(2));
                a.kmovw_k_r32(KReg(2), Gpr::Rax);
                // hi = words[widx + 1] — the guard word keeps this in bounds.
                a.vpaddd(Zmm(13), Zmm(13), Zmm(16));
                a.vpxord(Zmm(7), Zmm(7), Zmm(7));
                a.vpgatherdd(Zmm(7), Gpr::R10, Zmm(13), 4, KReg(2));
                a.kmovw_k_r32(KReg(2), Gpr::Rax);
                // val = ((hi:lo) >> off) & mask(bits).
                a.vpshrdvd(Zmm(0), Zmm(7), Zmm(14));
                a.mov_r32_imm32(Gpr::Rsi, mask_of(bits));
                a.vpbroadcastd_r32(Zmm(13), Gpr::Rsi);
                a.vpandd(Zmm(0), Zmm(0), Zmm(13));
            }
        }
    }

    /// Emit the flush subroutine body for stage `s` (predicate `s`): fetch
    /// the pending positions' values from column `s`, compare under mask,
    /// compress the survivors and forward them. Ends with `ret`.
    fn flush_body(&mut self, s: usize) {
        let done = self.a.new_label();
        let a = &mut self.a;
        a.mov_r64_mem(Gpr::Rsi, Mem::base_disp(Gpr::Rbp, count_off(s)));
        a.test_r64_r64(Gpr::Rsi, Gpr::Rsi);
        a.jcc(Cond::E, done);

        // k2 = lane_mask(count) via LUT; keep the raw mask in eax.
        a.mov_r64_imm64(Gpr::R9, MASK_LUT.as_ptr() as u64);
        a.movzx_r32_m16(Gpr::Rax, Mem::base_index_scale(Gpr::R9, Gpr::Rsi, 2));
        a.kmovw_k_r32(KReg(2), Gpr::Rax);
        // count = 0
        a.xor_r32_r32(Gpr::R10, Gpr::R10);
        a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::R10);
        a.mov_r64_mem(Gpr::R10, Mem::base_disp(Gpr::Rdi, 8 * s as i32));
        self.gather(s);
        // Masked compare against the embedded needle.
        self.cmp(s, KReg(2), Some(KReg(2)));
        let a = &mut self.a;
        a.kortestw(KReg(2), KReg(2));
        a.jcc(Cond::E, done);
        a.kmovw_r32_k(Gpr::Rax, KReg(2));
        a.popcnt_r32_r32(Gpr::Rax, Gpr::Rax);
        self.compress_list(Zmm(7), plist_reg(s), KReg(2));
        self.forward(s);
        self.a.bind(done);
        self.a.ret();
    }
}

/// Check that `sig` is a chain this backend compiles: 1 to
/// [`MAX_JIT_PREDICATES`] predicates of one lane count, packed sources 1
/// to 32 bits wide with in-domain literals, and a packed driver at most 16
/// bits wide.
fn validate(sig: &ScanSig) -> Result<(), JitError> {
    if sig.is_empty() || sig.len() > MAX_JIT_PREDICATES {
        return Err(JitError::BadChainLength(sig.len()));
    }
    if sig.preds.iter().any(|p| p.src.lanes() != sig.lanes()) {
        return Err(JitError::MixedWidths);
    }
    for (pred, p) in sig.preds.iter().enumerate() {
        if let JitSrc::Packed { bits } = p.src {
            let max_bits = if pred == 0 { 16 } else { 32 };
            if bits == 0 || bits > max_bits || p.needle_bits > mask_of(bits) as u64 {
                return Err(JitError::BadPackedSource { pred, bits });
            }
        }
    }
    Ok(())
}

/// Compile the fused AVX-512 kernel for `sig`. The code is position
/// independent except for embedded absolute addresses of process statics
/// (merge, iota, mask and unpack tables), so a kernel is valid for the
/// lifetime of the process, which is exactly the kernel cache's lifetime.
/// The code needs AVX-512 F/VL/BW/DQ, plus VBMI2 when a source is packed;
/// [`CompiledKernel`](crate::CompiledKernel) checks the host.
pub fn compile_avx512(sig: &ScanSig) -> Result<Vec<u8>, JitError> {
    validate(sig)?;
    let p = sig.len();
    let mut e = Emitter {
        a: Asm::new(),
        sig,
        w8: sig.lanes() == 8,
        flush: Vec::new(),
    };
    e.flush = (0..p).map(|_| e.a.new_label()).collect();
    let packed = sig
        .preds
        .iter()
        .any(|p| matches!(p.src, JitSrc::Packed { .. }));
    let a = &mut e.a;

    // Prologue.
    a.push_r64(Gpr::Rbp);
    a.mov_r64_r64(Gpr::Rbp, Gpr::Rsp);
    a.push_r64(Gpr::Rbx);
    a.push_r64(Gpr::R12);
    a.sub_r64_imm32(Gpr::Rsp, FRAME);

    a.xor_r32_r32(Gpr::Rax, Gpr::Rax);
    for s in 1..p {
        a.mov_mem_r64(Mem::base_disp(Gpr::Rbp, count_off(s)), Gpr::Rax);
    }
    a.mov_r64_mem(Gpr::R8, Mem::base(Gpr::Rdi));
    a.mov_r64_mem(Gpr::Rcx, Mem::base_disp(Gpr::Rdi, 64));
    if sig.emit_positions {
        a.mov_r64_mem(Gpr::Rbx, Mem::base_disp(Gpr::Rdi, 72));
    }
    a.xor_r32_r32(Gpr::R11, Gpr::R11);
    let merge = if e.w8 {
        MERGE8.as_ptr() as u64
    } else {
        MERGE16.as_ptr() as u64
    };
    a.mov_r64_imm64(Gpr::R12, merge);
    for (i, pred) in sig.preds.iter().enumerate() {
        if e.w8 {
            a.mov_r64_imm64(Gpr::Rax, pred.needle_bits);
            a.vpbroadcastq_r64(needle_reg(i), Gpr::Rax);
        } else {
            a.mov_r32_imm32(Gpr::Rax, pred.needle_bits as u32);
            a.vpbroadcastd_r32(needle_reg(i), Gpr::Rax);
        }
    }
    a.mov_r64_imm64(Gpr::Rax, IOTA16.as_ptr() as u64);
    e.load_list(Zmm(6), Mem::base(Gpr::Rax));
    let a = &mut e.a;
    a.vpxord(Zmm(8), Zmm(8), Zmm(8));
    for s in 1..p {
        let r = plist_reg(s);
        if e.w8 {
            a.vpxord_y(r, r, r);
        } else {
            a.vpxord(r, r, r);
        }
    }
    if packed {
        // Packed-scan constants in the EVEX-only high registers.
        a.mov_r32_imm32(Gpr::Rax, 31);
        a.vpbroadcastd_r32(Zmm(15), Gpr::Rax);
        a.mov_r32_imm32(Gpr::Rax, 1);
        a.vpbroadcastd_r32(Zmm(16), Gpr::Rax);
        if let JitSrc::Packed { bits } = sig.preds[0].src {
            a.mov_r32_imm32(Gpr::Rax, mask_of(bits));
            a.vpbroadcastd_r32(Zmm(17), Gpr::Rax);
        }
    }
    a.xor_r32_r32(Gpr::Rdx, Gpr::Rdx);

    // Driver loop.
    let top = a.new_label();
    let next_block = a.new_label();
    let loop_end = a.new_label();
    a.bind(top);
    a.cmp_r64_r64(Gpr::Rdx, Gpr::Rcx);
    a.jcc(Cond::Ae, loop_end);
    e.driver_load();
    e.cmp(0, KReg(1), None);
    let a = &mut e.a;
    a.kortestw(KReg(1), KReg(1));
    a.jcc(Cond::E, next_block);
    a.kmovw_r32_k(Gpr::Rax, KReg(1));
    a.popcnt_r32_r32(Gpr::Rax, Gpr::Rax);
    // Block offsets = iota + broadcast(base row), compressed by the mask.
    if e.w8 {
        a.vpbroadcastd_r32_y(Zmm(14), Gpr::Rdx);
        a.vpaddd_y(Zmm(14), Zmm(14), Zmm(6));
    } else {
        a.vpbroadcastd_r32(Zmm(14), Gpr::Rdx);
        a.vpaddd(Zmm(14), Zmm(14), Zmm(6));
    }
    e.compress_list(Zmm(7), Zmm(14), KReg(1));
    e.forward(0);
    let lanes = e.lanes();
    let a = &mut e.a;
    a.bind(next_block);
    a.add_r64_imm8(Gpr::Rdx, lanes);
    a.jmp(top);

    // Drain stages ascending, return the total.
    a.bind(loop_end);
    for &stage in &e.flush[1..p] {
        a.call(stage);
    }
    a.mov_r64_r64(Gpr::Rax, Gpr::R11);
    a.add_r64_imm32(Gpr::Rsp, FRAME);
    a.pop_r64(Gpr::R12);
    a.pop_r64(Gpr::Rbx);
    a.pop_r64(Gpr::Rbp);
    a.ret();

    // Flush subroutines.
    for s in 1..p {
        e.a.bind(e.flush[s]);
        e.flush_body(s);
    }
    Ok(e.a.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelArgs, KernelFn};
    use crate::mem::ExecBuf;
    use fts_simd::has_avx512;

    fn skip() -> bool {
        if !has_avx512() {
            eprintln!("skipping: no AVX-512 on this host");
            return true;
        }
        false
    }

    /// Run the JIT kernel on full blocks only (rows truncated), like the
    /// wrapper does.
    fn run<T: Copy>(sig: &ScanSig, cols: &[&[T]]) -> (u64, Vec<u32>) {
        let code = compile_avx512(sig).unwrap();
        let buf = ExecBuf::new(&code).unwrap();
        let lanes = sig.lanes();
        let rows_full = cols[0].len() / lanes * lanes;
        let mut out = vec![0u32; rows_full + 16];
        let mut args = KernelArgs {
            cols: [std::ptr::null(); 8],
            rows: rows_full as u64,
            out: if sig.emit_positions {
                out.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
        };
        for (i, c) in cols.iter().enumerate() {
            args.cols[i] = c.as_ptr() as *const u8;
        }
        // SAFETY: AVX-512 present (checked by caller), compiled KernelFn.
        let f: KernelFn = unsafe { std::mem::transmute(buf.entry()) };
        // SAFETY: args outlives the call; out has enough slack.
        let count = unsafe { f(&args) };
        out.truncate(count as usize);
        (count, out)
    }

    fn expected_u32(cols: &[&[u32]], preds: &[(CmpOp, u32)], rows: usize) -> Vec<u32> {
        use fts_storage::NativeType;
        (0..rows as u32)
            .filter(|&r| {
                preds
                    .iter()
                    .zip(cols)
                    .all(|(&(op, n), c)| c[r as usize].cmp_op(op, n))
            })
            .collect()
    }

    #[test]
    fn figure3_example_compiled() {
        if skip() {
            return;
        }
        let a = [2u32, 5, 4, 5, 6, 1, 5, 7, 6, 8, 5, 3, 5, 9, 9, 5];
        let b = [5u32, 2, 3, 1, 1, 3, 6, 0, 8, 7, 3, 3, 2, 9, 3, 2];
        let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true);
        let (count, pos) = run(&sig, &[&a[..], &b[..]]);
        assert_eq!(count, 3);
        assert_eq!(pos, vec![1, 12, 15]);
    }

    #[test]
    fn all_operator_pairs_match_reference() {
        if skip() {
            return;
        }
        let a: Vec<u32> = (0..640).map(|i| i % 13).collect();
        let b: Vec<u32> = (0..640).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                let preds = [(op0, 6u32), (op1, 3u32)];
                let sig = ScanSig::u32_chain(&preds, true);
                let (count, pos) = run(&sig, &[&a[..], &b[..]]);
                let expected = expected_u32(&[&a, &b], &preds, 640);
                assert_eq!(pos, expected, "{op0} {op1}");
                assert_eq!(count, expected.len() as u64);
            }
        }
    }

    #[test]
    fn chains_one_to_five_predicates() {
        if skip() {
            return;
        }
        let cols: Vec<Vec<u32>> = (0..5u32)
            .map(|c| (0..1600u32).map(|i| i.wrapping_mul(c + 7) % 3).collect())
            .collect();
        for p in 1..=5 {
            let refs: Vec<&[u32]> = cols[..p].iter().map(|c| &c[..]).collect();
            let preds: Vec<(CmpOp, u32)> = vec![(CmpOp::Eq, 1); p];
            for emit in [false, true] {
                let sig = ScanSig::u32_chain(&preds, emit);
                let (count, pos) = run(&sig, &refs);
                let expected = expected_u32(&refs, &preds, 1600);
                assert_eq!(count, expected.len() as u64, "P={p} emit={emit}");
                if emit {
                    assert_eq!(pos, expected, "P={p}");
                }
            }
        }
    }

    #[test]
    fn extreme_selectivities_stress_flush_paths() {
        if skip() {
            return;
        }
        let rows = 4096usize;
        let all = vec![5u32; rows];
        let none = vec![4u32; rows];
        let half: Vec<u32> = (0..rows as u32).map(|i| 4 + i % 2).collect();
        for (x, y) in [
            (&all, &half),
            (&half, &all),
            (&all, &none),
            (&none, &all),
            (&all, &all),
        ] {
            let preds = [(CmpOp::Eq, 5u32), (CmpOp::Eq, 5u32)];
            let sig = ScanSig::u32_chain(&preds, true);
            let (count, pos) = run(&sig, &[&x[..], &y[..]]);
            let expected = expected_u32(&[x, y], &preds, rows);
            assert_eq!(count, expected.len() as u64);
            assert_eq!(pos, expected);
        }
    }

    #[test]
    fn signed_chain_with_negatives() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let a: Vec<i32> = (0..800).map(|i| (i % 9) - 4).collect();
        let b: Vec<i32> = (0..800).map(|i| (i % 5) - 2).collect();
        for op in CmpOp::ALL {
            let sig = ScanSig::typed(&[(op, -1i32), (CmpOp::Ge, 0)], true);
            let (_, pos) = run(&sig, &[&a[..], &b[..]]);
            let expected: Vec<u32> = (0..800u32)
                .filter(|&r| a[r as usize].cmp_op(op, -1) && b[r as usize] >= 0)
                .collect();
            assert_eq!(pos, expected, "{op}");
        }
    }

    #[test]
    fn float_chain_with_nan() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let mut a: Vec<f32> = (0..640).map(|i| (i % 7) as f32).collect();
        a[13] = f32::NAN;
        a[500] = f32::NAN;
        let b: Vec<f32> = (0..640).map(|i| (i % 3) as f32).collect();
        for op in CmpOp::ALL {
            let sig = ScanSig::typed(&[(op, 3.0f32), (CmpOp::Lt, 2.0)], true);
            let (_, pos) = run(&sig, &[&a[..], &b[..]]);
            let expected: Vec<u32> = (0..640u32)
                .filter(|&r| a[r as usize].cmp_op(op, 3.0) && b[r as usize] < 2.0)
                .collect();
            assert_eq!(pos, expected, "{op}");
        }
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(matches!(
            compile_avx512(&ScanSig::u32_chain(&[], false)),
            Err(JitError::BadChainLength(0))
        ));
        let long = vec![(CmpOp::Eq, 1u32); 6];
        assert!(matches!(
            compile_avx512(&ScanSig::u32_chain(&long, false)),
            Err(JitError::BadChainLength(6))
        ));
    }

    fn expected_typed<T: Copy>(
        cols: &[&[T]],
        preds: &[(CmpOp, T)],
        rows: usize,
        cmp: impl Fn(T, CmpOp, T) -> bool,
    ) -> Vec<u32> {
        (0..rows as u32)
            .filter(|&r| {
                preds
                    .iter()
                    .zip(cols)
                    .all(|(&(op, n), c)| cmp(c[r as usize], op, n))
            })
            .collect()
    }

    #[test]
    fn w64_u64_all_operator_pairs() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let big = u64::MAX - 9;
        let a: Vec<u64> = (0..400u64)
            .map(|i| if i % 5 == 0 { big } else { i % 13 })
            .collect();
        let b: Vec<u64> = (0..400u64).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                let preds = [(op0, big), (op1, 3u64)];
                let sig = ScanSig::typed(&preds, true);
                let (count, pos) = run(&sig, &[&a[..], &b[..]]);
                // The test harness truncates to full 16-value blocks for the
                // 32-bit kernels; the 64-bit kernel consumes 8-value blocks,
                // so recompute the harness cut to 8.
                let rows_full = 400 / 8 * 8;
                let expected =
                    expected_typed(&[&a, &b], &preds, rows_full, |v, op, n| v.cmp_op(op, n));
                assert_eq!(pos, expected, "{op0} {op1}");
                assert_eq!(count, expected.len() as u64);
            }
        }
    }

    #[test]
    fn w64_i64_and_f64_chains() {
        if skip() {
            return;
        }
        use fts_storage::NativeType;
        let a: Vec<i64> = (0..800)
            .map(|i| (i % 9) - 4 + if i % 7 == 0 { i64::MIN / 2 } else { 0 })
            .collect();
        let b: Vec<i64> = (0..800).map(|i| (i % 5) - 2).collect();
        for op in CmpOp::ALL {
            let preds = [(op, -1i64), (CmpOp::Ge, 0i64)];
            let sig = ScanSig::typed(&preds, true);
            let (_, pos) = run(&sig, &[&a[..], &b[..]]);
            let expected = expected_typed(&[&a, &b], &preds, 800, |v, op, n| v.cmp_op(op, n));
            assert_eq!(pos, expected, "i64 {op}");
        }

        let mut f: Vec<f64> = (0..800).map(|i| (i % 7) as f64 * 0.5).collect();
        f[13] = f64::NAN;
        f[700] = f64::NAN;
        let g: Vec<f64> = (0..800).map(|i| (i % 3) as f64 - 1.0).collect();
        for op in CmpOp::ALL {
            let preds = [(op, 1.5f64), (CmpOp::Lt, 1.0f64)];
            let sig = ScanSig::typed(&preds, true);
            let (_, pos) = run(&sig, &[&f[..], &g[..]]);
            let expected = expected_typed(&[&f, &g], &preds, 800, |v, op, n| v.cmp_op(op, n));
            assert_eq!(pos, expected, "f64 {op}");
        }
    }

    #[test]
    fn w64_chains_up_to_five_and_extremes() {
        if skip() {
            return;
        }
        let cols: Vec<Vec<u64>> = (0..5u64)
            .map(|c| (0..960u64).map(|i| i.wrapping_mul(c + 7) % 3).collect())
            .collect();
        for p in 1..=5 {
            let refs: Vec<&[u64]> = cols[..p].iter().map(|c| &c[..]).collect();
            let preds: Vec<(CmpOp, u64)> = vec![(CmpOp::Eq, 1); p];
            let sig = ScanSig::typed(&preds, true);
            let (count, pos) = run(&sig, &refs);
            use fts_storage::NativeType;
            let expected = expected_typed(&refs, &preds, 960, |v, op, n| v.cmp_op(op, n));
            assert_eq!(count, expected.len() as u64, "P={p}");
            assert_eq!(pos, expected, "P={p}");
        }
        // All-match stresses the full/overflow flush paths.
        let all = vec![5u64; 2048];
        let sig = ScanSig::typed(&[(CmpOp::Eq, 5u64), (CmpOp::Eq, 5)], false);
        let (count, _) = run(&sig, &[&all[..], &all[..]]);
        assert_eq!(count, 2048);
    }

    #[test]
    fn emitted_code_is_reasonably_sized() {
        let sig = ScanSig::u32_chain(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], true);
        let code = compile_avx512(&sig).unwrap();
        assert!(
            code.len() > 100 && code.len() < 4096,
            "{} bytes",
            code.len()
        );
    }

    /// A one-predicate-per-source signature with the given packed widths
    /// (`None` = plain `u32`) and literals.
    fn packed_sig(srcs: &[(Option<u8>, u64)]) -> ScanSig {
        let mut sig = ScanSig::u32_chain(&vec![(CmpOp::Eq, 0); srcs.len()], false);
        for (p, &(bits, needle)) in sig.preds.iter_mut().zip(srcs) {
            if let Some(bits) = bits {
                p.src = JitSrc::Packed { bits };
            }
            p.needle_bits = needle;
        }
        sig
    }

    #[test]
    fn rejects_packed_width_zero_or_above_32() {
        for bits in [0u8, 33] {
            assert_eq!(
                compile_avx512(&packed_sig(&[(None, 1), (Some(bits), 0)])),
                Err(JitError::BadPackedSource { pred: 1, bits })
            );
        }
        assert!(compile_avx512(&packed_sig(&[(None, 1), (Some(32), 0)])).is_ok());
    }

    #[test]
    fn rejects_packed_driver_above_16_bits() {
        assert_eq!(
            compile_avx512(&packed_sig(&[(Some(17), 1), (None, 1)])),
            Err(JitError::BadPackedSource { pred: 0, bits: 17 })
        );
        // The same width compiles as a follower.
        assert!(compile_avx512(&packed_sig(&[(None, 1), (Some(17), 1)])).is_ok());
        assert!(compile_avx512(&packed_sig(&[(Some(16), 1), (None, 1)])).is_ok());
    }

    #[test]
    fn rejects_out_of_domain_packed_literal() {
        assert_eq!(
            compile_avx512(&packed_sig(&[(None, 1), (None, 2), (Some(4), 16)])),
            Err(JitError::BadPackedSource { pred: 2, bits: 4 })
        );
        assert!(compile_avx512(&packed_sig(&[(None, 1), (None, 2), (Some(4), 15)])).is_ok());
    }

    #[test]
    fn rejects_mixed_width_chain() {
        let mut sig = ScanSig::u32_chain(&[(CmpOp::Eq, 1), (CmpOp::Eq, 2)], true);
        sig.preds[1] = crate::ir::JitPred::plain(CmpOp::Eq, 2u64);
        assert_eq!(compile_avx512(&sig), Err(JitError::MixedWidths));
        // A packed source does not make a 64-bit chain compilable either.
        let mut sig = packed_sig(&[(Some(4), 1)]);
        sig.preds
            .insert(0, crate::ir::JitPred::plain(CmpOp::Lt, -1.5f64));
        assert_eq!(compile_avx512(&sig), Err(JitError::MixedWidths));
    }
}
