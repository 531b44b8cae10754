//! Action-language IR → TEP assembly.
//!
//! The generator is parameterised by the target [`TepArch`]:
//!
//! * machines without the M/D calculation unit get multiplies and
//!   divides expanded into calls to a synthesised software runtime
//!   (shift-add multiply, restoring divide — the reason the minimal TEP
//!   blows its timing budget in Table 4);
//! * machines without a comparator get comparisons expanded into
//!   subtract/sign-test/branch sequences;
//! * machines without a two's-complement ALU path get `neg` expanded
//!   into complement-and-increment;
//! * globals are placed in the architecture's global storage class, with
//!   per-slot promotions (internal RAM / register file) supplied by the
//!   iterative optimiser via [`CodegenOptions`];
//! * when [`TepArch::optimize_code`] is set, an assembler-level peephole
//!   removes store/load pairs and jump chains (the §4 "simple
//!   optimizations" at the instruction level).
//!
//! The software runtime is *written in the action language itself* and
//! compiled through the same pipeline, so its semantics are checked by
//! the same differential tests.

use crate::arch::{StorageClass, TepArch};
use crate::isa::{AluOp, AsmFunction, AsmInst, CmpOp, Instr, Storage};
use pscp_action_lang::ir::{self, BinOp, Inst as IrInst, Program, VReg};
use pscp_action_lang::types::Scalar;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Placement overrides decided by the iterative optimiser.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CodegenOptions {
    /// Global slots promoted to a faster storage class. Keys are IR
    /// global slot indices; arrays/structs must be promoted as whole
    /// blocks by listing every slot (scalars only for `Register`).
    pub global_promotions: BTreeMap<u32, StorageClass>,
}

/// A placed global slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalPlace {
    /// Diagnostic name from the IR.
    pub name: String,
    /// Value type.
    pub ty: Scalar,
    /// Reset value.
    pub init: i64,
    /// Where it lives.
    pub storage: Storage,
}

/// A fully-compiled TEP program: routines, global placement, ports.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct TepProgram {
    /// Compiled routines; runtime routines are appended after the user's.
    pub functions: Vec<AsmFunction>,
    /// Routine name → index.
    pub entry: BTreeMap<String, u32>,
    /// Placed globals, parallel to the IR global slots.
    pub globals: Vec<GlobalPlace>,
    /// External data ports (address map).
    pub ports: Vec<ir::PortInfo>,
    /// Event names (indices match `RaiseEvent` operands).
    pub events: Vec<String>,
    /// Condition names (indices match `SetCond`/`ReadCond` operands).
    pub conditions: Vec<String>,
    /// Architecture snapshot the program was compiled for.
    pub arch: TepArch,
    /// Internal RAM words used (frames + promoted globals).
    pub internal_words_used: u16,
    /// External RAM words used.
    pub external_words_used: u16,
}

impl TepProgram {
    /// Index of a routine by name.
    pub fn function_index(&self, name: &str) -> Option<u32> {
        self.entry.get(name).copied()
    }

    /// Total instruction count across all routines (program-memory size).
    pub fn instruction_count(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// Test-only constructor wiring hand-written functions.
    #[doc(hidden)]
    pub fn for_tests(functions: Vec<AsmFunction>, arch: TepArch) -> Self {
        let entry =
            functions.iter().enumerate().map(|(i, f)| (f.name.clone(), i as u32)).collect();
        TepProgram {
            functions,
            entry,
            globals: Vec::new(),
            ports: Vec::new(),
            events: Vec::new(),
            conditions: Vec::new(),
            arch,
            internal_words_used: 0,
            external_words_used: 0,
        }
    }
}

/// Compiles an IR program for an architecture.
///
/// # Panics
///
/// Panics on malformed IR (dangling function indices); the action-language
/// front end never produces such IR.
pub fn compile_program(ir: &Program, arch: &TepArch, options: &CodegenOptions) -> TepProgram {
    compile_with(ir, arch, options, None)
}

/// [`compile_program`] with a per-routine [`CodegenCache`]: routines
/// whose content key matches a cached body are reused instead of
/// re-lowered. The output is byte-identical to the uncached path.
pub fn compile_program_cached(
    ir: &Program,
    arch: &TepArch,
    options: &CodegenOptions,
    cache: &CodegenCache,
) -> TepProgram {
    compile_with(ir, arch, options, Some(cache))
}

fn compile_with(
    ir: &Program,
    arch: &TepArch,
    options: &CodegenOptions,
    cache: Option<&CodegenCache>,
) -> TepProgram {
    let cache = cache.filter(|c| c.is_enabled());
    let plan = CompilePlan::build(ir, arch, options, cache);
    let functions = lower_functions(ir, arch, &plan, cache);
    TepProgram {
        functions,
        entry: plan.entry,
        globals: plan.globals,
        ports: ir.ports.clone(),
        events: ir.events.clone(),
        conditions: ir.conditions.clone(),
        arch: arch.clone(),
        internal_words_used: plan.internal_words,
        external_words_used: plan.external_words,
    }
}

/// Stage outputs shared by every routine: runtime selection (stage 1),
/// the function table (stage 2), and storage placement (stage 3).
/// Per-routine lowering (stage 4) reads the plan and nothing else,
/// which is what makes routine bodies cacheable.
struct CompilePlan {
    runtime: RuntimeSet,
    runtime_ir: Option<Program>,
    entry: BTreeMap<String, u32>,
    runtime_base: u32,
    globals: Vec<GlobalPlace>,
    frame_bases: Vec<u16>,
    internal_words: u16,
    external_words: u16,
}

impl CompilePlan {
    fn build(
        ir: &Program,
        arch: &TepArch,
        options: &CodegenOptions,
        cache: Option<&CodegenCache>,
    ) -> CompilePlan {
        // 1. Decide which runtime routines are needed and synthesise
        //    them by compiling action-language source through the
        //    normal pipeline (memoized per runtime set when cached).
        let runtime = RuntimeSet::required(ir, arch);
        let runtime_ir = match cache {
            Some(c) => c.runtime_program(&runtime),
            None => runtime.compile(),
        };

        // 2. Function table: user functions first, runtime after.
        let mut entry: BTreeMap<String, u32> = BTreeMap::new();
        for (i, f) in ir.functions.iter().enumerate() {
            entry.insert(f.name.clone(), i as u32);
        }
        let runtime_base = ir.functions.len() as u32;
        if let Some(rt) = &runtime_ir {
            for (i, f) in rt.functions.iter().enumerate() {
                entry.insert(f.name.clone(), runtime_base + i as u32);
            }
        }

        // 3. Global placement.
        let mut globals = Vec::with_capacity(ir.globals.len());
        let mut next_external: u16 = 0;
        let mut next_register: u8 = 0;
        // Frames live in the per-TEP local (internal) RAM. Since recursion
        // is banned, frames are laid out as a *static overlay*: a callee's
        // frame starts after the deepest caller chain that can reach it, so
        // functions that are never simultaneously live share addresses.
        let frame_sizes: Vec<u16> = ir
            .functions
            .iter()
            .map(|f| f.vreg_count() as u16)
            .chain(
                runtime_ir
                    .iter()
                    .flat_map(|rt| rt.functions.iter().map(|f| f.vreg_count() as u16)),
            )
            .collect();
        let frame_bases = overlay_frames(ir, runtime_ir.as_ref(), &frame_sizes);
        let mut next_internal: u16 = frame_bases
            .iter()
            .zip(&frame_sizes)
            .map(|(&b, &s)| b + s)
            .max()
            .unwrap_or(0);
        for (slot, g) in ir.globals.iter().enumerate() {
            let class = options
                .global_promotions
                .get(&(slot as u32))
                .copied()
                .unwrap_or(arch.global_storage);
            let storage = match class {
                StorageClass::Register if next_register < arch.register_file => {
                    let r = next_register;
                    next_register += 1;
                    Storage::Register(r)
                }
                StorageClass::Register | StorageClass::Internal => {
                    let a = next_internal;
                    next_internal += 1;
                    Storage::Internal(a)
                }
                StorageClass::External => {
                    let a = next_external;
                    next_external += 1;
                    Storage::External(a)
                }
            };
            globals.push(GlobalPlace { name: g.name.clone(), ty: g.ty, init: g.init, storage });
        }

        CompilePlan {
            runtime,
            runtime_ir,
            entry,
            runtime_base,
            globals,
            frame_bases,
            internal_words: next_internal,
            external_words: next_external,
        }
    }
}

/// Stage 4: per-routine lowering, optionally served from `cache`.
fn lower_functions(
    ir: &Program,
    arch: &TepArch,
    plan: &CompilePlan,
    cache: Option<&CodegenCache>,
) -> Vec<AsmFunction> {
    let mut functions = Vec::new();
    let all_ir: Vec<(&ir::Function, Option<u64>)> = ir
        .functions
        .iter()
        .map(|f| (f, None))
        .chain(plan.runtime_ir.iter().flat_map(|rt| {
            rt.functions.iter().map(|f| (f, runtime_loop_bound(&f.name)))
        }))
        .collect();
    for (i, (f, loop_bound)) in all_ir.iter().enumerate() {
        let key = cache.map(|_| routine_key(plan, arch, f, i, *loop_bound));
        if let (Some(c), Some(key)) = (cache, key) {
            if let Some(body) = c.cached_body(key, f, plan.frame_bases[i]) {
                functions.push(body);
                continue;
            }
        }
        let cg = FnCodegen {
            arch,
            entry: &plan.entry,
            globals: &plan.globals,
            frame_base: plan.frame_bases[i],
            frame_bases: &plan.frame_bases,
            ir_fn: f,
            runtime: &plan.runtime,
            runtime_base: plan.runtime_base,
            // IR `Call` operands inside runtime routines index the
            // runtime's own function table; rebase them.
            call_offset: if i >= ir.functions.len() { plan.runtime_base } else { 0 },
            const_of: const_analysis(f),
        };
        let mut asm = cg.run();
        asm.loop_bound = *loop_bound;
        if arch.optimize_code {
            peephole_asm(&mut asm);
            eliminate_dead_frame_stores(&mut asm);
        }
        if let (Some(c), Some(key)) = (cache, key) {
            c.insert_body(key, &asm);
        }
        functions.push(asm);
    }
    functions
}

const KEY_SEED1: u64 = 0xcbf2_9ce4_8422_2325;
const KEY_SEED2: u64 = 0x9e37_79b9_7f4a_7c15;

/// The repository's content hasher: two independently-seeded FNV-1a
/// streams fed from one [`std::hash::Hasher`] write stream, so
/// structural `Hash` impls produce a 128-bit content key in a single
/// traversal with no intermediate buffer. Codegen's routine keys, the
/// optimiser's memo keys and the serve layer's system fingerprints all
/// hash through it.
///
/// A key depends on the `Hash` impls it traverses and on the compiler
/// that derived them, so it is stable per build and source, not across
/// them. Anything that persists keys carries a format version.
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher { a: KEY_SEED1, b: KEY_SEED2 }
    }
}

impl KeyHasher {
    /// The 128-bit key: both streams.
    pub fn finish128(&self) -> u128 {
        u128::from(self.a) << 64 | u128::from(self.b)
    }

    /// The 128-bit key of one value.
    pub fn key<T: std::hash::Hash + ?Sized>(value: &T) -> u128 {
        let mut h = KeyHasher::default();
        value.hash(&mut h);
        h.finish128()
    }

    const P: u64 = 0x0000_0100_0000_01b3;

    /// One absorption round per stream. Feeding whole words instead of
    /// bytes keeps `#[derive(Hash)]` traversals (mostly u32/u64 writes)
    /// at one multiply per word rather than one per byte.
    #[inline]
    fn round(&mut self, word: u64) {
        self.a = (self.a ^ word).wrapping_mul(Self::P);
        self.b = (self.b ^ word.rotate_left(32)).wrapping_mul(Self::P);
    }
}

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.round(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Tag with the tail length so "ab" + "c" and "a" + "bc"
            // absorb differently.
            word[7] = rest.len() as u8 | 0x80;
            self.round(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.round(u64::from(v) | 0x1_00);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.round(u64::from(v) | 0x2_0000);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.round(u64::from(v) | 0x4_0000_0000);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.round(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.a
    }
}

/// Content key of one routine's compiled body.
///
/// The key mirrors exactly what [`FnCodegen`] reads while lowering this
/// routine: an architecture knob enters the key only when the routine
/// contains an operation that knob can change. `calc.muldiv` (plus the
/// resolved runtime routine indices and frame bases) only when the
/// routine multiplies or divides, `calc.comparator` only when it
/// compares, `calc.twos_complement` only when it negates, global
/// placements only for the slots it actually touches, callee frame
/// bases only for its actual callees.
/// `calc.width`, `shifter`, `pipelined` and the storage budget knobs
/// never reach lowering, so changing them invalidates nothing.
fn routine_key(
    plan: &CompilePlan,
    arch: &TepArch,
    f: &ir::Function,
    index: usize,
    loop_bound: Option<u64>,
) -> u128 {
    use std::hash::Hash;
    let call_offset = if index as u32 >= plan.runtime_base { plan.runtime_base } else { 0 };
    let mut h = KeyHasher::default();
    f.hash(&mut h);
    plan.frame_bases[index].hash(&mut h);
    call_offset.hash(&mut h);
    loop_bound.hash(&mut h);
    arch.optimize_code.hash(&mut h);
    let mut slots: BTreeSet<u32> = BTreeSet::new();
    let mut callees: BTreeSet<u32> = BTreeSet::new();
    let mut runtime_calls: BTreeSet<String> = BTreeSet::new();
    let (mut has_muldiv, mut has_cmp, mut has_neg) = (false, false, false);
    for inst in &f.insts {
        match inst {
            IrInst::LoadGlobal { slot, .. } | IrInst::StoreGlobal { slot, .. } => {
                slots.insert(*slot);
            }
            IrInst::LoadIndexed { base, .. } | IrInst::StoreIndexed { base, .. } => {
                slots.insert(*base);
            }
            IrInst::Call { func, .. } => {
                callees.insert(*func + call_offset);
            }
            IrInst::Bin { op, dst, lhs, rhs } => match op {
                BinOp::Mul | BinOp::Div | BinOp::Rem => {
                    has_muldiv = true;
                    if !arch.calc.muldiv {
                        // Mirrors `lower_bin`'s runtime dispatch.
                        let w = runtime_width(
                            f.vreg_type(*dst)
                                .width
                                .max(f.vreg_type(*lhs).width)
                                .max(f.vreg_type(*rhs).width),
                        );
                        let signed = f.vreg_type(*lhs).signed || f.vreg_type(*rhs).signed;
                        runtime_calls.insert(runtime_name(*op, w, signed && *op != BinOp::Mul));
                    }
                }
                _ if op.is_compare() => has_cmp = true,
                _ => {}
            },
            IrInst::Un { op: ir::UnOp::Neg, .. } => has_neg = true,
            _ => {}
        }
    }
    for slot in slots {
        slot.hash(&mut h);
        plan.globals[slot as usize].hash(&mut h);
    }
    for callee in callees {
        callee.hash(&mut h);
        plan.frame_bases[callee as usize].hash(&mut h);
    }
    if has_muldiv {
        arch.calc.muldiv.hash(&mut h);
        for name in runtime_calls {
            let idx = plan.entry[&name];
            name.hash(&mut h);
            idx.hash(&mut h);
            plan.frame_bases[idx as usize].hash(&mut h);
        }
    }
    if has_cmp {
        arch.calc.comparator.hash(&mut h);
    }
    if has_neg {
        arch.calc.twos_complement.hash(&mut h);
    }
    h.finish128()
}

/// Point-in-time hit/miss/invalidation counts of a [`CodegenCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that served a reusable body.
    pub hits: u64,
    /// Lookups that missed and compiled fresh.
    pub misses: u64,
    /// Cached bodies that failed structural validation and were
    /// discarded (each also counts as a miss).
    pub invalidations: u64,
}

/// In-process per-routine codegen cache.
///
/// Keys are content hashes of everything lowering reads for one routine
/// (see `routine_key`); values are finished [`AsmFunction`] bodies
/// (post-peephole). A hit is additionally validated against the
/// routine's shape (name, arity, frame extent) so a stale or corrupted
/// entry is detected and recompiled instead of served. The compiled
/// software-runtime library is memoized per `RuntimeSet` as well.
#[derive(Debug)]
pub struct CodegenCache {
    enabled: bool,
    bodies: Mutex<HashMap<u128, AsmFunction>>,
    runtimes: Mutex<HashMap<u128, Program>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for CodegenCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CodegenCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// An empty cache; a disabled one stores nothing, so every compile
    /// through it is a full one.
    pub fn with_enabled(enabled: bool) -> Self {
        CodegenCache {
            enabled,
            bodies: Mutex::new(HashMap::new()),
            runtimes: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Whether lookups are live (false = every compile is a full one).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current hit/miss/invalidation counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            invalidations: self.invalidations.load(Relaxed),
        }
    }

    /// Number of cached routine bodies.
    pub fn len(&self) -> usize {
        self.bodies.lock().unwrap().len()
    }

    /// True when no routine body is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compiles (or recalls) the software runtime for `set`.
    fn runtime_program(&self, set: &RuntimeSet) -> Option<Program> {
        if set.is_empty() {
            return None;
        }
        if !self.enabled {
            return set.compile();
        }
        let key = KeyHasher::key(set);
        let mut map = self.runtimes.lock().unwrap();
        if let Some(p) = map.get(&key) {
            return Some(p.clone());
        }
        let p = set.compile();
        if let Some(p) = &p {
            map.insert(key, p.clone());
        }
        p
    }

    /// Looks up `key`, validating the stored body against the routine's
    /// shape. A mismatch (stale or poisoned entry) is discarded and
    /// counted as an invalidation + miss, forcing a fresh compile.
    fn cached_body(&self, key: u128, f: &ir::Function, frame_base: u16) -> Option<AsmFunction> {
        if !self.enabled {
            return None;
        }
        let mut map = self.bodies.lock().unwrap();
        let Some(body) = map.get(&key) else {
            self.note_miss();
            return None;
        };
        let shape_ok = body.name == f.name
            && body.param_count as usize == f.params.len()
            && body.frame.len() == f.vreg_count()
            && (f.vreg_count() == 0
                || body.frame.first() == Some(&Storage::Internal(frame_base)));
        if !shape_ok {
            map.remove(&key);
            self.invalidations.fetch_add(1, Relaxed);
            pscp_obs::metrics::COMPILE_CACHE_INVALIDATIONS.inc();
            self.note_miss();
            return None;
        }
        let body = body.clone();
        drop(map);
        self.hits.fetch_add(1, Relaxed);
        pscp_obs::metrics::COMPILE_CACHE_HITS.inc();
        Some(body)
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Relaxed);
        pscp_obs::metrics::COMPILE_CACHE_MISSES.inc();
    }

    fn insert_body(&self, key: u128, body: &AsmFunction) {
        if self.enabled {
            self.bodies.lock().unwrap().insert(key, body.clone());
        }
    }

    /// Overwrites every cached body with `body`, regardless of key —
    /// simulates stale/corrupt entries for cache-poisoning tests.
    #[doc(hidden)]
    pub fn poison_for_tests(&self, body: &AsmFunction) {
        let mut map = self.bodies.lock().unwrap();
        for v in map.values_mut() {
            *v = body.clone();
        }
    }
}

/// Static frame overlay: `base(callee) = max over callers of
/// (base(caller) + size(caller))`, computed over the combined user +
/// runtime call graph (which is a DAG — recursion is rejected by the
/// front end). The runtime's internal calls (`__divs` → `__divu`) and
/// the implicit calls from mul/div lowering are included.
fn overlay_frames(
    ir: &Program,
    runtime_ir: Option<&Program>,
    sizes: &[u16],
) -> Vec<u16> {
    let user_n = ir.functions.len();
    let total = sizes.len();
    // Edges: caller -> callee (global indices).
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (i, f) in ir.functions.iter().enumerate() {
        for inst in &f.insts {
            match inst {
                IrInst::Call { func, .. } => callees[i].push(*func as usize),
                // Mul/Div/Rem may lower to runtime calls; conservatively
                // link every runtime routine as a potential callee.
                IrInst::Bin { op: BinOp::Mul | BinOp::Div | BinOp::Rem, .. } => {
                    for r in user_n..total {
                        callees[i].push(r);
                    }
                }
                _ => {}
            }
        }
    }
    if let Some(rt) = runtime_ir {
        for (i, f) in rt.functions.iter().enumerate() {
            for inst in &f.insts {
                if let IrInst::Call { func, .. } = inst {
                    callees[user_n + i].push(user_n + *func as usize);
                }
            }
        }
    }
    // Longest-path relaxation over the DAG (|V| passes suffice).
    let mut base = vec![0u16; total];
    for _ in 0..total {
        let mut changed = false;
        for caller in 0..total {
            for &callee in &callees[caller] {
                let want = base[caller] + sizes[caller];
                if base[callee] < want {
                    base[callee] = want;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    base
}

/// Which software-runtime routines an architecture needs for a program.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct RuntimeSet {
    /// Widths needing software multiply.
    mul_widths: Vec<u8>,
    /// (width, signed) needing software divide.
    div_widths: Vec<(u8, bool)>,
    /// (width, signed) needing software remainder.
    rem_widths: Vec<(u8, bool)>,
}

impl RuntimeSet {
    fn required(ir: &Program, arch: &TepArch) -> Self {
        let mut set = RuntimeSet::default();
        if arch.calc.muldiv {
            return set;
        }
        for f in &ir.functions {
            for inst in &f.insts {
                if let IrInst::Bin { op, dst, lhs, rhs } = inst {
                    let w = runtime_width(
                        f.vreg_type(*dst).width.max(f.vreg_type(*lhs).width).max(f.vreg_type(*rhs).width),
                    );
                    let signed = f.vreg_type(*lhs).signed || f.vreg_type(*rhs).signed;
                    match op {
                        BinOp::Mul
                            if !set.mul_widths.contains(&w) => {
                                set.mul_widths.push(w);
                            }
                        BinOp::Div
                            if !set.div_widths.contains(&(w, signed)) => {
                                set.div_widths.push((w, signed));
                            }
                        BinOp::Rem
                            if !set.rem_widths.contains(&(w, signed)) => {
                                set.rem_widths.push((w, signed));
                            }
                        _ => {}
                    }
                }
            }
        }
        // Signed div/rem wrappers call the unsigned ones.
        for &(w, s) in set.div_widths.clone().iter().chain(set.rem_widths.clone().iter()) {
            if s && !set.div_widths.contains(&(w, false)) {
                set.div_widths.push((w, false));
            }
        }
        set.mul_widths.sort_unstable();
        set.div_widths.sort_unstable();
        set.rem_widths.sort_unstable();
        set
    }

    fn is_empty(&self) -> bool {
        self.mul_widths.is_empty() && self.div_widths.is_empty() && self.rem_widths.is_empty()
    }

    /// Generates the runtime as action-language source and compiles it.
    fn compile(&self) -> Option<Program> {
        if self.is_empty() {
            return None;
        }
        let mut src = String::new();
        for &w in &self.mul_widths {
            // Shift-add multiply; low bits are sign-agnostic.
            src.push_str(&format!(
                r#"
uint:{w} __mulu_{w}(uint:{w} a, uint:{w} b) {{
    uint:{w} res = 0;
    uint:8 i = {w};
    while (i > 0) {{
        if (b & 1) {{ res = res + a; }}
        a = a << 1;
        b = b >> 1;
        i = i - 1;
    }}
    return res;
}}
"#
            ));
        }
        for &(w, signed) in &self.div_widths {
            if !signed {
                src.push_str(&unsigned_divmod_src(w));
            }
        }
        for &(w, signed) in &self.div_widths {
            if signed {
                src.push_str(&format!(
                    r#"
int:{w} __divs_{w}(int:{w} a, int:{w} b) {{
    uint:1 sa = a < 0;
    uint:1 sb = b < 0;
    uint:{w} ua = a;
    uint:{w} ub = b;
    if (sa) {{ ua = 0 - ua; }}
    if (sb) {{ ub = 0 - ub; }}
    uint:{w} q = __divu_{w}(ua, ub);
    if (sa != sb) {{ return 0 - q; }}
    return q;
}}
"#
                ));
            }
        }
        for &(w, signed) in &self.rem_widths {
            if signed {
                src.push_str(&format!(
                    r#"
int:{w} __rems_{w}(int:{w} a, int:{w} b) {{
    uint:1 sa = a < 0;
    uint:{w} ua = a;
    uint:{w} ub = b;
    if (sa) {{ ua = 0 - ua; }}
    if (b < 0) {{ ub = 0 - ub; }}
    uint:{w} r = __remu_{w}(ua, ub);
    if (sa) {{ return 0 - r; }}
    return r;
}}
"#
                ));
            }
        }
        // Unsigned rem bodies (and any divu pulled in only by rem).
        for &(w, signed) in &self.rem_widths {
            if !signed && !self.div_widths.contains(&(w, false)) {
                src.push_str(&unsigned_divmod_src(w));
            }
        }
        let env = pscp_action_lang::ProgramEnv::default();
        Some(pscp_action_lang::compile_with_env(&src, &env).expect("runtime library must compile"))
    }
}

/// `__divu_w` / `__remu_w`: restoring division, one bit per iteration.
fn unsigned_divmod_src(w: u8) -> String {
    format!(
        r#"
uint:{w} __divu_{w}(uint:{w} a, uint:{w} b) {{
    uint:{w} q = 0;
    uint:{w} r = 0;
    uint:8 i = {w};
    while (i > 0) {{
        r = (r << 1) | ((a >> ({w} - 1)) & 1);
        a = a << 1;
        q = q << 1;
        if (r >= b) {{ r = r - b; q = q | 1; }}
        i = i - 1;
    }}
    return q;
}}
uint:{w} __remu_{w}(uint:{w} a, uint:{w} b) {{
    uint:{w} r = 0;
    uint:8 i = {w};
    while (i > 0) {{
        r = (r << 1) | ((a >> ({w} - 1)) & 1);
        a = a << 1;
        if (r >= b) {{ r = r - b; }}
        i = i - 1;
    }}
    return r;
}}
"#
    )
}

/// The runtime's loops iterate exactly `width` times.
fn runtime_loop_bound(name: &str) -> Option<u64> {
    name.rsplit('_').next().and_then(|w| w.parse::<u64>().ok())
}

/// Widths the runtime is generated for (snapped up to 8/16/32).
fn runtime_width(w: u8) -> u8 {
    match w {
        0..=8 => 8,
        9..=16 => 16,
        _ => 32,
    }
}

fn runtime_name(op: BinOp, w: u8, signed: bool) -> String {
    match (op, signed) {
        (BinOp::Mul, _) => format!("__mulu_{w}"),
        (BinOp::Div, false) => format!("__divu_{w}"),
        (BinOp::Div, true) => format!("__divs_{w}"),
        (BinOp::Rem, false) => format!("__remu_{w}"),
        (BinOp::Rem, true) => format!("__rems_{w}"),
        _ => unreachable!("no runtime for {op:?}"),
    }
}

struct FnCodegen<'a> {
    arch: &'a TepArch,
    entry: &'a BTreeMap<String, u32>,
    globals: &'a [GlobalPlace],
    frame_base: u16,
    frame_bases: &'a [u16],
    ir_fn: &'a ir::Function,
    runtime: &'a RuntimeSet,
    runtime_base: u32,
    call_offset: u32,
    /// `Some(k)` for virtual registers defined exactly once, by a
    /// `Const k`: every read inlines to `Ldi k` and the definition is
    /// not materialised at all.
    const_of: Vec<Option<i64>>,
}

/// Single-definition constant analysis for operand inlining.
fn const_analysis(f: &ir::Function) -> Vec<Option<i64>> {
    let mut defs = vec![0u32; f.vreg_count()];
    let mut value: Vec<Option<i64>> = vec![None; f.vreg_count()];
    for inst in &f.insts {
        if let Some(d) = inst.def() {
            defs[d.0 as usize] += 1;
            value[d.0 as usize] = match inst {
                IrInst::Const { value, .. } => Some(*value),
                _ => None,
            };
        }
    }
    // Parameters are implicit definitions.
    for p in 0..f.params.len() {
        defs[p] += 1;
        value[p] = None;
    }
    value
        .into_iter()
        .zip(defs)
        .map(|(v, d)| if d == 1 { v } else { None })
        .collect()
}

impl FnCodegen<'_> {
    fn home(&self, v: VReg) -> Storage {
        Storage::Internal(self.frame_base + v.0 as u16)
    }

    fn ty(&self, v: VReg) -> Scalar {
        self.ir_fn.vreg_type(v)
    }

    fn run(&self) -> AsmFunction {
        let f = self.ir_fn;
        let mut code: Vec<AsmInst> = Vec::new();
        // Map: IR pc -> asm index of its first instruction.
        let mut ir_to_asm: Vec<u32> = Vec::with_capacity(f.insts.len() + 1);
        // (asm index, ir target pc) fixups.
        let mut fixups: Vec<(usize, usize)> = Vec::new();

        let mut prev_def: Option<VReg> = None;
        for inst in &f.insts {
            ir_to_asm.push(code.len() as u32);
            self.lower_inst(inst, &mut code, &mut fixups, prev_def);
            prev_def = inst.def();
        }
        ir_to_asm.push(code.len() as u32);
        // Safety net terminator.
        code.push(AsmInst::new(Instr::Return, 1, false));

        for (at, ir_pc) in fixups {
            code[at].instr.set_branch_target(ir_to_asm[ir_pc]);
        }

        AsmFunction {
            name: f.name.clone(),
            param_count: f.params.len() as u8,
            frame: (0..f.vreg_count())
                .map(|i| Storage::Internal(self.frame_base + i as u16))
                .collect(),
            code,
            loop_bound: None,
        }
    }

    fn lower_inst(
        &self,
        inst: &IrInst,
        code: &mut Vec<AsmInst>,
        fixups: &mut Vec<(usize, usize)>,
        prev_def: Option<VReg>,
    ) {
        let f = self.ir_fn;
        match inst {
            IrInst::Const { dst, value } => {
                // Fully inlined constants need no materialised home.
                if self.const_of[dst.0 as usize].is_some() {
                    return;
                }
                let t = self.ty(*dst);
                code.push(AsmInst::new(Instr::Ldi(t.wrap(*value)), t.width, t.signed));
                self.store(*dst, code);
            }
            IrInst::Copy { dst, src } => {
                self.load(*src, code);
                self.store(*dst, code);
            }
            IrInst::Bin { op, dst, lhs, rhs } => {
                // Accumulator chaining: when the previous instruction's
                // result is the left operand of a commutative operation,
                // swap the operands — the `Store h; Load h` pair the
                // swap creates is then folded by the peephole.
                let commutative = matches!(
                    op,
                    BinOp::Add
                        | BinOp::Mul
                        | BinOp::And
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::CmpEq
                        | BinOp::CmpNe
                );
                let (lhs, rhs) = if commutative && prev_def == Some(*lhs) && lhs != rhs {
                    (*rhs, *lhs)
                } else {
                    (*lhs, *rhs)
                };
                self.lower_bin(*op, *dst, lhs, rhs, code);
            }
            IrInst::Un { op, dst, src } => {
                self.load(*src, code);
                let t = self.ty(*dst);
                match op {
                    ir::UnOp::Not => {
                        code.push(AsmInst::new(Instr::Alu(AluOp::Not), t.width, t.signed));
                    }
                    ir::UnOp::Neg => {
                        if self.arch.calc.twos_complement {
                            code.push(AsmInst::new(Instr::Alu(AluOp::Neg), t.width, t.signed));
                        } else {
                            // -x = ~x + 1
                            code.push(AsmInst::new(Instr::Alu(AluOp::Not), t.width, t.signed));
                            code.push(AsmInst::new(Instr::Tao, t.width, t.signed));
                            code.push(AsmInst::new(Instr::Ldi(1), t.width, t.signed));
                            code.push(AsmInst::new(Instr::Alu(AluOp::Add), t.width, t.signed));
                        }
                    }
                }
                self.store(*dst, code);
            }
            IrInst::LoadGlobal { dst, slot } => {
                let g = &self.globals[*slot as usize];
                code.push(AsmInst::new(Instr::Load(g.storage), g.ty.width, g.ty.signed));
                self.store(*dst, code);
            }
            IrInst::StoreGlobal { slot, src } => {
                let g = &self.globals[*slot as usize];
                self.load(*src, code);
                code.push(AsmInst::new(Instr::Store(g.storage), g.ty.width, g.ty.signed));
            }
            IrInst::LoadIndexed { dst, base, index } => {
                let g = &self.globals[*base as usize];
                self.load(*index, code);
                code.push(AsmInst::new(
                    Instr::LoadIndexed(g.storage),
                    g.ty.width,
                    g.ty.signed,
                ));
                self.store(*dst, code);
            }
            IrInst::StoreIndexed { base, index, src } => {
                let g = &self.globals[*base as usize];
                self.load(*index, code);
                code.push(AsmInst::new(Instr::Tao, 16, false));
                self.load(*src, code);
                code.push(AsmInst::new(
                    Instr::StoreIndexed(g.storage),
                    g.ty.width,
                    g.ty.signed,
                ));
            }
            IrInst::PortRead { dst, port } => {
                let t = self.ty(*dst);
                code.push(AsmInst::new(Instr::PortRead(*port as u16), t.width, t.signed));
                self.store(*dst, code);
            }
            IrInst::PortWrite { port, src } => {
                self.load(*src, code);
                let t = self.ty(*src);
                code.push(AsmInst::new(Instr::PortWrite(*port as u16), t.width, t.signed));
            }
            IrInst::ReadCondition { dst, cond } => {
                code.push(AsmInst::new(Instr::ReadCond(*cond as u16), 1, false));
                self.store(*dst, code);
            }
            IrInst::SetCondition { cond, src } => {
                self.load(*src, code);
                code.push(AsmInst::new(Instr::SetCond(*cond as u16), 1, false));
            }
            IrInst::RaiseEvent { event } => {
                code.push(AsmInst::new(Instr::RaiseEvent(*event as u16), 1, false));
            }
            IrInst::Call { func, args, dst } => {
                self.emit_call(*func + self.call_offset, args, *dst, code);
            }
            IrInst::Ret { value } => {
                if let Some(v) = value {
                    self.load(*v, code);
                }
                code.push(AsmInst::new(Instr::Return, 1, false));
            }
            IrInst::Jump { target } => {
                let at = code.len();
                code.push(AsmInst::new(Instr::Jump(0), 1, false));
                fixups.push((at, f.label_pos(*target)));
            }
            IrInst::Branch { cond, if_true, if_false } => {
                self.load(*cond, code);
                let at = code.len();
                code.push(AsmInst::new(Instr::JumpIfNotZero(0), 1, false));
                fixups.push((at, f.label_pos(*if_true)));
                let at2 = code.len();
                code.push(AsmInst::new(Instr::Jump(0), 1, false));
                fixups.push((at2, f.label_pos(*if_false)));
            }
        }
    }

    fn load(&self, v: VReg, code: &mut Vec<AsmInst>) {
        let t = self.ty(v);
        // Single-definition constants are rematerialised instead of
        // loaded: `Ldi k` is cheaper than a RAM access, and the stored
        // definition disappears entirely.
        if let Some(k) = self.const_of[v.0 as usize] {
            code.push(AsmInst::new(Instr::Ldi(t.wrap(k)), t.width, t.signed));
            return;
        }
        code.push(AsmInst::new(Instr::Load(self.home(v)), t.width, t.signed));
    }

    fn store(&self, v: VReg, code: &mut Vec<AsmInst>) {
        let t = self.ty(v);
        code.push(AsmInst::new(Instr::Store(self.home(v)), t.width, t.signed));
    }

    fn lower_bin(&self, op: BinOp, dst: VReg, lhs: VReg, rhs: VReg, code: &mut Vec<AsmInst>) {
        let t = self.ty(dst);
        let lt = self.ty(lhs);
        let rt = self.ty(rhs);

        // Software runtime for mul/div/rem on M/D-less machines.
        if matches!(op, BinOp::Mul | BinOp::Div | BinOp::Rem) && !self.arch.calc.muldiv {
            let w = runtime_width(t.width.max(lt.width).max(rt.width));
            let signed = lt.signed || rt.signed;
            let name = runtime_name(op, w, signed && op != BinOp::Mul);
            let idx = self.entry[&name];
            self.emit_raw_call(idx, &[lhs, rhs], Some(dst), code);
            return;
        }

        if op.is_compare() {
            let signed = lt.signed || rt.signed;
            let cmp = match op {
                BinOp::CmpEq => CmpOp::Eq,
                BinOp::CmpNe => CmpOp::Ne,
                BinOp::CmpLt => CmpOp::Lt,
                BinOp::CmpLe => CmpOp::Le,
                _ => unreachable!(),
            };
            let w = lt.width.max(rt.width);
            self.load(rhs, code);
            code.push(AsmInst::new(Instr::Tao, w, signed));
            self.load(lhs, code);
            if self.arch.calc.comparator {
                code.push(AsmInst::new(Instr::Cmp { op: cmp, signed }, w, signed));
            } else {
                self.expand_cmp(cmp, w, signed, code);
            }
            self.store(dst, code);
            return;
        }

        let alu = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Rem => AluOp::Rem,
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Or,
            BinOp::Xor => AluOp::Xor,
            BinOp::Shl => AluOp::Shl,
            BinOp::Shr => {
                if lt.signed {
                    AluOp::Sar
                } else {
                    AluOp::Shr
                }
            }
            _ => unreachable!("compares handled above"),
        };
        self.load(rhs, code);
        code.push(AsmInst::new(Instr::Tao, rt.width, rt.signed));
        self.load(lhs, code);
        code.push(AsmInst::new(Instr::Alu(alu), t.width, t.signed));
        self.store(dst, code);
    }

    /// Comparator-less compare: subtract at widened precision, then test
    /// the sign / zero with branches.
    fn expand_cmp(&self, cmp: CmpOp, w: u8, signed: bool, code: &mut Vec<AsmInst>) {
        // Entry state: ACC = lhs, OP = rhs.
        // Exact difference needs w+2 bits: with mixed signedness the
        // worst case is (2^w - 1) - (-2^(w-1)), which exceeds w+1 signed
        // bits.
        let wide = w + 2;
        match cmp {
            CmpOp::Eq | CmpOp::Ne => {
                code.push(AsmInst::new(Instr::Alu(AluOp::Xor), w, false));
                // ACC = lhs ^ rhs; == 0 iff equal.
                let base = code.len() as u32;
                if cmp == CmpOp::Eq {
                    // jz -> 1 else 0
                    code.push(AsmInst::new(Instr::JumpIfZero(base + 3), 1, false));
                    code.push(AsmInst::new(Instr::Ldi(0), 1, false));
                    code.push(AsmInst::new(Instr::Jump(base + 4), 1, false));
                    code.push(AsmInst::new(Instr::Ldi(1), 1, false));
                } else {
                    code.push(AsmInst::new(Instr::JumpIfZero(base + 3), 1, false));
                    code.push(AsmInst::new(Instr::Ldi(1), 1, false));
                    code.push(AsmInst::new(Instr::Jump(base + 4), 1, false));
                    code.push(AsmInst::new(Instr::Ldi(0), 1, false));
                }
            }
            CmpOp::Lt | CmpOp::Le => {
                // The subtraction is carried out at widened precision so
                // it is exact for both signed and unsigned operands; the
                // sign bit of the widened difference then decides.
                //   lt(a, b)  <=>  a - b < 0
                //   le(a, b)  <=>  a - b - 1 < 0
                let _ = signed; // widening makes signedness irrelevant
                code.push(AsmInst::new(Instr::Alu(AluOp::Sub), wide, true));
                let test_width = if cmp == CmpOp::Le {
                    let w2 = wide + 1;
                    code.push(AsmInst::new(Instr::Tao, w2, true)); // OP = diff
                    code.push(AsmInst::new(Instr::Ldi(-1), w2, true));
                    code.push(AsmInst::new(Instr::Alu(AluOp::Add), w2, true));
                    w2
                } else {
                    wide
                };
                // Sign test: ACC = diff & SIGN_MASK, nonzero iff negative.
                code.push(AsmInst::new(Instr::Tao, test_width, true)); // OP = diff
                code.push(AsmInst::new(
                    Instr::Ldi(1i64 << (test_width - 1)),
                    test_width,
                    false,
                ));
                code.push(AsmInst::new(Instr::Alu(AluOp::And), test_width, false));
                let base = code.len() as u32;
                code.push(AsmInst::new(Instr::JumpIfNotZero(base + 3), 1, false));
                code.push(AsmInst::new(Instr::Ldi(0), 1, false));
                code.push(AsmInst::new(Instr::Jump(base + 4), 1, false));
                code.push(AsmInst::new(Instr::Ldi(1), 1, false));
            }
        }
    }

    fn emit_call(&self, func: u32, args: &[VReg], dst: Option<VReg>, code: &mut Vec<AsmInst>) {
        self.emit_raw_call(func, args, dst, code);
    }

    fn emit_raw_call(
        &self,
        func: u32,
        args: &[VReg],
        dst: Option<VReg>,
        code: &mut Vec<AsmInst>,
    ) {
        // Arguments are stored into the callee's frame (params live in
        // its first slots). Static frames are safe: no recursion.
        let callee_base = self.frame_bases[func as usize];
        for (i, &a) in args.iter().enumerate() {
            let t = self.ty(a);
            self.load(a, code);
            code.push(AsmInst::new(
                Instr::Store(Storage::Internal(callee_base + i as u16)),
                t.width,
                t.signed,
            ));
        }
        code.push(AsmInst::new(Instr::Call(func), 1, false));
        let _ = self.runtime_base;
        let _ = self.runtime;
        if let Some(d) = dst {
            self.store(d, code);
        }
    }
}

/// Removes stores to the routine's own frame slots that are never read
/// back. The accumulator codegen materialises every intermediate result
/// in its frame home; once loads are folded (peephole, fused
/// instructions), many of those homes become write-only. Parameter
/// slots are kept — callers write them. Frame overlay keeps callee
/// frames disjoint from the caller's own slots, so the analysis is
/// per-function.
pub fn eliminate_dead_frame_stores(f: &mut AsmFunction) {
    use std::collections::BTreeSet;
    let own: BTreeSet<Storage> = f.frame.iter().copied().collect();
    let params: BTreeSet<Storage> =
        f.frame.iter().take(f.param_count as usize).copied().collect();
    let mut read: BTreeSet<Storage> = BTreeSet::new();
    for inst in &f.code {
        match &inst.instr {
            Instr::Load(s) => {
                read.insert(*s);
            }
            Instr::AluMem { src, .. } => {
                read.insert(*src);
            }
            _ => {}
        }
    }
    let mut removed = false;
    for inst in f.code.iter_mut() {
        if let Instr::Store(s) = inst.instr {
            if own.contains(&s) && !params.contains(&s) && !read.contains(&s) {
                inst.instr = Instr::Nop;
                removed = true;
            }
        }
    }
    if removed {
        compact_nops(f);
    }
}

/// Drops `Nop`s, remapping branch targets.
fn compact_nops(f: &mut AsmFunction) {
    let mut new_index = vec![0u32; f.code.len() + 1];
    let mut n = 0u32;
    for (i, inst) in f.code.iter().enumerate() {
        new_index[i] = n;
        if !matches!(inst.instr, Instr::Nop) {
            n += 1;
        }
    }
    new_index[f.code.len()] = n;
    let old = std::mem::take(&mut f.code);
    for mut inst in old {
        if matches!(inst.instr, Instr::Nop) {
            continue;
        }
        if let Some(t) = inst.instr.branch_target() {
            inst.instr.set_branch_target(new_index[t as usize]);
        }
        f.code.push(inst);
    }
}

/// Assembler-level peephole: jump chains, jumps-to-next, and
/// store/load-same-location pairs (the result is still in ACC).
pub fn peephole_asm(f: &mut AsmFunction) {
    // 1. Collapse jump chains: a branch to an unconditional `Jump t`
    //    retargets to `t` (bounded to avoid cycles).
    for i in 0..f.code.len() {
        if let Some(mut t) = f.code[i].instr.branch_target() {
            let mut hops = 0;
            while hops < 8 {
                match f.code.get(t as usize).map(|x| &x.instr) {
                    Some(Instr::Jump(t2)) if *t2 != t => {
                        t = *t2;
                        hops += 1;
                    }
                    _ => break,
                }
            }
            f.code[i].instr.set_branch_target(t);
        }
    }

    // 2. Remove `Store X; Load X` pairs when X is not loaded again
    //    *immediately* needed — conservatively: replace the Load with Nop
    //    only when no branch targets the Load. (The Store stays: the slot
    //    may be read later.)
    let mut is_target = vec![false; f.code.len() + 1];
    for inst in &f.code {
        if let Some(t) = inst.instr.branch_target() {
            if (t as usize) < is_target.len() {
                is_target[t as usize] = true;
            }
        }
    }
    for i in 0..f.code.len().saturating_sub(1) {
        let (a, b) = (&f.code[i].instr, &f.code[i + 1].instr);
        if let (Instr::Store(sa), Instr::Load(sb)) = (a, b) {
            if sa == sb && !is_target[i + 1] {
                f.code[i + 1].instr = Instr::Nop;
                f.code[i + 1].width = 1;
            }
        }
    }

    // 3. Drop Nops and jumps-to-next by rebuilding with an index map.
    let mut keep: Vec<bool> = Vec::with_capacity(f.code.len());
    for (i, inst) in f.code.iter().enumerate() {
        let drop = matches!(inst.instr, Instr::Nop)
            || matches!(inst.instr, Instr::Jump(t) if t as usize == i + 1);
        keep.push(!drop);
    }
    // Never drop a branch target position entirely — map to next kept.
    let mut new_index = vec![0u32; f.code.len() + 1];
    let mut n = 0u32;
    for i in 0..f.code.len() {
        new_index[i] = n;
        if keep[i] {
            n += 1;
        }
    }
    new_index[f.code.len()] = n;
    let old = std::mem::take(&mut f.code);
    for (i, mut inst) in old.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let Some(t) = inst.instr.branch_target() {
            inst.instr.set_branch_target(new_index[t as usize]);
        }
        f.code.push(inst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_action_lang::{compile_with_env, ProgramEnv};

    #[test]
    fn compiles_simple_function() {
        let ir = compile_with_env(
            "int:16 add(int:16 a, int:16 b) { return a + b; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let p = compile_program(&ir, &TepArch::md16_unoptimized(), &CodegenOptions::default());
        let f = &p.functions[p.function_index("add").unwrap() as usize];
        assert!(f.code.iter().any(|i| matches!(i.instr, Instr::Alu(AluOp::Add))));
        assert!(f.code.iter().any(|i| matches!(i.instr, Instr::Return)));
    }

    #[test]
    fn muldiv_expands_on_minimal_arch() {
        let ir = compile_with_env(
            "int:16 f(int:16 a, int:16 b) { return a * b / 3; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let minimal = compile_program(&ir, &TepArch::minimal(), &CodegenOptions::default());
        assert!(minimal.function_index("__mulu_16").is_some());
        assert!(minimal.function_index("__divs_16").is_some());
        let f = &minimal.functions[minimal.function_index("f").unwrap() as usize];
        assert!(
            !f.code.iter().any(|i| matches!(i.instr, Instr::Alu(AluOp::Mul | AluOp::Div))),
            "no hw mul/div on minimal arch"
        );

        let md = compile_program(&ir, &TepArch::md16_unoptimized(), &CodegenOptions::default());
        assert!(md.function_index("__mulu_16").is_none(), "no runtime with hw M/D");
    }

    #[test]
    fn runtime_loop_bounds_recorded() {
        let ir = compile_with_env(
            "uint:8 f(uint:8 a) { return a * 3; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let p = compile_program(&ir, &TepArch::minimal(), &CodegenOptions::default());
        let rt = &p.functions[p.function_index("__mulu_8").unwrap() as usize];
        assert_eq!(rt.loop_bound, Some(8));
    }

    #[test]
    fn globals_placed_by_class_and_promotion() {
        let ir = compile_with_env(
            "int:16 g;\nint:16 h;\nvoid f() { g = h + 1; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let ext = compile_program(&ir, &TepArch::md16_unoptimized(), &CodegenOptions::default());
        assert!(matches!(ext.globals[0].storage, Storage::External(_)));

        let mut opts = CodegenOptions::default();
        opts.global_promotions.insert(0, StorageClass::Register);
        opts.global_promotions.insert(1, StorageClass::Internal);
        let promoted = compile_program(&ir, &TepArch::md16_optimized(), &opts);
        assert!(matches!(promoted.globals[0].storage, Storage::Register(_)));
        assert!(matches!(promoted.globals[1].storage, Storage::Internal(_)));
    }

    #[test]
    fn peephole_removes_store_load_pairs() {
        let ir = compile_with_env(
            "int:16 f(int:16 a) { int:16 x = a + 1; return x + 2; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let unopt =
            compile_program(&ir, &TepArch::md16_unoptimized(), &CodegenOptions::default());
        let opt = compile_program(&ir, &TepArch::md16_optimized(), &CodegenOptions::default());
        let fu = &unopt.functions[unopt.function_index("f").unwrap() as usize];
        let fo = &opt.functions[opt.function_index("f").unwrap() as usize];
        assert!(fo.code.len() < fu.code.len(), "{} !< {}", fo.code.len(), fu.code.len());
    }

    #[test]
    fn branch_targets_valid_after_peephole() {
        let src = r#"
            int:16 f(int:16 n) {
                int:16 s = 0;
                while (n > 0) { if (n & 1) { s += n; } n = n - 1; }
                return s;
            }
        "#;
        let ir = compile_with_env(src, &ProgramEnv::default()).unwrap();
        for arch in [TepArch::md16_optimized(), TepArch::md16_unoptimized(), TepArch::minimal()]
        {
            let p = compile_program(&ir, &arch, &CodegenOptions::default());
            for f in &p.functions {
                for inst in &f.code {
                    if let Some(t) = inst.instr.branch_target() {
                        assert!(
                            (t as usize) <= f.code.len(),
                            "target {t} out of range in {}",
                            f.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cached_compile_is_identical_and_hits_on_repeat() {
        let src = r#"
            int:16 g;
            int:16 f(int:16 a) { g = a * 3; return g + 1; }
            int:16 h(int:16 b) { return b - 2; }
        "#;
        let ir = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let arch = TepArch::md16_optimized();
        let opts = CodegenOptions::default();
        let cache = CodegenCache::with_enabled(true);
        let plain = compile_program(&ir, &arch, &opts);
        let cold = compile_program_cached(&ir, &arch, &opts, &cache);
        assert_eq!(plain, cold);
        assert_eq!(cache.stats().hits, 0);
        let warm = compile_program_cached(&ir, &arch, &opts, &cache);
        assert_eq!(plain, warm);
        assert_eq!(cache.stats().hits as usize, plain.functions.len());
    }

    #[test]
    fn flag_flip_invalidates_only_affected_routines() {
        // `f` compares, `h` does not: flipping the comparator must only
        // recompile `f`.
        let src = r#"
            uint:1 f(int:16 a, int:16 b) { return a < b; }
            int:16 h(int:16 c) { return c + 7; }
        "#;
        let ir = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let mut arch = TepArch::md16_optimized();
        let opts = CodegenOptions::default();
        let cache = CodegenCache::with_enabled(true);
        let base = compile_program_cached(&ir, &arch, &opts, &cache);
        arch.calc.comparator = false;
        let flipped = compile_program_cached(&ir, &arch, &opts, &cache);
        assert_eq!(flipped, compile_program(&ir, &arch, &opts));
        assert_ne!(base.functions[0], flipped.functions[0]);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1, "only `h` should hit: {stats:?}");
    }

    #[test]
    fn cached_recompile_matches_full_compile() {
        let src = r#"
            int:16 g;
            int:16 f(int:16 a) { g = a * g; return g; }
            uint:1 p(int:16 x) { return x < 0; }
        "#;
        let ir = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let cache = CodegenCache::with_enabled(true);
        let base_arch = TepArch::md16_unoptimized();
        compile_program_cached(&ir, &base_arch, &CodegenOptions::default(), &cache);
        for (arch, opts) in [
            (TepArch::md16_optimized(), CodegenOptions::default()),
            (TepArch::minimal(), CodegenOptions::default()),
            (TepArch::md16_unoptimized(), {
                let mut o = CodegenOptions::default();
                o.global_promotions.insert(0, StorageClass::Internal);
                o
            }),
        ] {
            let got = compile_program_cached(&ir, &arch, &opts, &cache);
            let want = compile_program(&ir, &arch, &opts);
            assert_eq!(got, want, "cached recompile diverged for {arch:?}");
        }
    }

    #[test]
    fn poisoned_entries_are_detected_and_recompiled() {
        let src = "int:16 f(int:16 a) { return a + 1; }\nint:16 h(int:16 b) { return b * 2; }";
        let ir = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let arch = TepArch::md16_optimized();
        let opts = CodegenOptions::default();
        let cache = CodegenCache::with_enabled(true);
        let want = compile_program_cached(&ir, &arch, &opts, &cache);
        let bogus = AsmFunction {
            name: "__poison__".into(),
            param_count: 9,
            frame: Vec::new(),
            code: vec![AsmInst::new(Instr::Return, 1, false)],
            loop_bound: None,
        };
        cache.poison_for_tests(&bogus);
        let got = compile_program_cached(&ir, &arch, &opts, &cache);
        assert_eq!(got, want, "poisoned cache must not change output");
        let stats = cache.stats();
        assert!(stats.invalidations >= 2, "poison must be detected: {stats:?}");
    }

    #[test]
    fn disabled_cache_never_stores() {
        let ir = compile_with_env(
            "int:16 f(int:16 a) { return a + 1; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let cache = CodegenCache::with_enabled(false);
        let arch = TepArch::md16_optimized();
        let got = compile_program_cached(&ir, &arch, &CodegenOptions::default(), &cache);
        assert_eq!(got, compile_program(&ir, &arch, &CodegenOptions::default()));
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn comparator_less_arch_avoids_cmp() {
        let ir = compile_with_env(
            "uint:1 f(int:8 a, int:8 b) { return a < b; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let p = compile_program(&ir, &TepArch::minimal(), &CodegenOptions::default());
        let f = &p.functions[p.function_index("f").unwrap() as usize];
        assert!(!f.code.iter().any(|i| matches!(i.instr, Instr::Cmp { .. })));
    }
}
