//! Proof that the workspace-planned decode hot loop is allocation-free after warmup.
//!
//! A counting global allocator wraps the system allocator and charges every allocation to
//! the thread that made it (the tests below run on parallel threads; each reads only its
//! own counter); after a prefill plus enough
//! decode steps to warm every workspace pool past the window's power-of-two capacity
//! ceilings, a measured window of further decode steps must perform **zero** heap
//! allocations — unprotected and under an always-on statistical-ABFT protector alike (the
//! fault-free detection path reuses the protector's scratch buffers).
//!
//! The model-level tests pin two backends: `Reference` (its `_into` kernels are the oracle
//! every other backend is differentially tested against) and `Simd` (the microkernel keeps
//! its tile in stack registers and must not allocate packing scratch per call). Neither
//! spawns worker threads whose stacks would muddy the count. The engine-level test (a
//! decode row and a 12-row prefill chunk) adds the pooled default, to pin that such shapes
//! stay inline below the sharding threshold, the AVX2 tier, whose kernels widen each row
//! panel into a stack buffer just as the best tier's do, and the portable tier — the tiled
//! scalar loop, which is also what `EngineKind::auto()` runs on hosts without AVX2 and what
//! takes every vector tier's column tail; its widening scratch is a stack tile. Under
//! `REALM_FORCE_SCALAR=1` the model-level Simd tests prove the same contract for the
//! portable tier.
//!
//! Since the decode-shape speed tier landed, `QuantLinear` pre-packs every weight matrix
//! into a [`realm::tensor::PackedMatI8`] replica at **model load**. That packing is a
//! one-time construction cost outside the measured window; the decode-path packed kernels
//! consume the resident tiles read-only, so the steady-state zero-allocation contract below
//! covers the packed path — the only path static weights take.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use realm::core::SchemeProtector;
use realm::llm::model::{argmax_with_margin, PrefillChunk};
use realm::llm::{config::ModelConfig, model::Model, GemmHook, NoopHook};
use realm::systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm::tensor::{EngineKind, Workspace};

/// Counts every allocation and reallocation routed through the global allocator, per
/// thread: the tests of this file run on parallel threads, and a measuring thread must
/// see its own allocations only.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside the
    // allocator neither allocates nor registers a teardown hook.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may still free or allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A model on the given backend with a context window large enough that the measured
/// decode window never crosses a workspace capacity ceiling mid-measurement.
fn model_on(engine: EngineKind) -> Model {
    let mut config = ModelConfig::tiny_opt();
    config.engine = engine;
    config.max_seq_len = 256;
    Model::new(&config, 42).unwrap()
}

fn reference_model() -> Model {
    model_on(EngineKind::Reference)
}

/// Runs `steps` greedy decode steps through one long-lived workspace and returns the
/// number of heap allocations the steps performed.
fn count_decode_allocations(
    model: &Model,
    hook: &mut dyn GemmHook,
    warmup: usize,
    steps: usize,
) -> u64 {
    let mut ws = Workspace::new();
    let (logits, mut cache) = model.prefill_ws(&[1, 2, 3, 4], hook, &mut ws).unwrap();
    let (mut next, _) = argmax_with_margin(logits.row(logits.rows() - 1));
    ws.recycle_mat_f32(logits);
    let mut decode = |next: &mut u32, cache: &mut _, ws: &mut Workspace| {
        let step_logits = model.decode_step_ws(*next, cache, hook, ws).unwrap();
        let (n, _) = argmax_with_margin(&step_logits);
        ws.recycle_vec_f32(step_logits);
        ws.reset();
        *next = n;
    };
    // Warmup: grows every pool to (power-of-two rounded) steady-state capacity. The
    // window below stays under the next ceiling, so any allocation inside it is a bug.
    for _ in 0..warmup {
        decode(&mut next, &mut cache, &mut ws);
    }
    let before = allocations();
    for _ in 0..steps {
        decode(&mut next, &mut cache, &mut ws);
    }
    allocations() - before
}

#[test]
fn decode_steps_after_warmup_allocate_nothing() {
    let model = reference_model();
    let sanity = allocations();
    assert!(sanity > 0, "the counting allocator is installed");
    // Warmup to KV length 4 + 64 = 68: every length-dependent scratch buffer has crossed
    // the 64-element ceiling and sits at a power-of-two capacity ≥ its demand through the
    // whole 40-step window (length ≤ 108 < 128).
    let allocations = count_decode_allocations(&model, &mut NoopHook, 64, 40);
    assert_eq!(
        allocations, 0,
        "steady-state decode must perform zero heap allocations per step"
    );
}

#[test]
fn simd_decode_steps_after_warmup_allocate_nothing() {
    // The SIMD backend's `_into` kernels keep their register tile on the stack; the packed
    // weight replicas they stream were allocated once at `Model::new` and are read-only
    // here, so the allocation-free contract extends to the packed decode path verbatim —
    // on every dispatch tier (AVX-512 or AVX2 here; the portable tier under the CI leg
    // that sets REALM_FORCE_SCALAR=1).
    let model = model_on(EngineKind::Simd);
    let allocations = count_decode_allocations(&model, &mut NoopHook, 64, 40);
    assert_eq!(
        allocations, 0,
        "steady-state SIMD decode must perform zero heap allocations per step"
    );
}

#[test]
fn packed_checksummed_gemv_reuses_buffers_without_allocating() {
    // Engine-level statement of the same contract: once the packed replica exists and the
    // destination/scratch buffers have been sized by a first call, repeated checksummed
    // packed GEMMs (the per-layer decode workload, and a 12-row short prefill chunk) and
    // row-major ones (attention, recovery) perform zero heap allocations. The vector
    // kernels widen each row panel into a stack buffer — no heap, no thread-local — on the
    // AVX2 tier as on the best one.
    use realm::tensor::engine::{ChecksummedGemm, GemmEngine, KernelEngine, ReferenceEngine};
    use realm::tensor::{rng, MatI32, MatI8, PackedMatI8, SimdTier};
    use std::sync::Arc;

    let mut r = rng::seeded(7);
    use rand::Rng;
    // 83 columns: five full 16-column blocks and a 3-column tail, so on every tier the
    // tiled routine runs under the counting allocator too.
    let w = MatI8::from_fn(96, 83, |_, _| r.gen_range(-128i16..=127) as i8);
    let pb = PackedMatI8::from_mat(w);
    // `SimdParallel` is the default engine: GEMMs this small are below its sharding
    // threshold, so they must run inline and spawn (hence allocate) nothing. The AVX2 and
    // portable tiers are pinned explicitly so they are covered on hosts with a better one.
    let engines: [(&str, Arc<dyn GemmEngine>); 4] = [
        ("simd", EngineKind::Simd.build()),
        ("simd_parallel", EngineKind::SimdParallel.build()),
        (
            "simd, avx2 tier",
            Arc::new(KernelEngine::simd_with_tier(SimdTier::Avx2)),
        ),
        (
            "simd, portable tier",
            Arc::new(KernelEngine::simd_with_tier(SimdTier::Portable)),
        ),
    ];
    for rows in [1, 12] {
        let a = MatI8::from_fn(rows, 96, |_, _| r.gen_range(-128i16..=127) as i8);
        for (kind, engine) in &engines {
            let mut dest = ChecksummedGemm::from_parts(MatI32::zeros(0, 0), Vec::new(), Vec::new());
            let mut etw = Vec::new();
            // Warmup sizes the accumulator and the three checksum buffers.
            engine
                .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                .unwrap();

            let before = allocations();
            for _ in 0..32 {
                engine
                    .gemm_i8_checksummed_into(&a, pb.unpacked(), &mut dest, &mut etw)
                    .unwrap();
                engine
                    .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                    .unwrap();
            }
            let allocations = allocations() - before;
            assert_eq!(
                allocations, 0,
                "{kind}, {rows} rows: repeated checksummed GEMMs must reuse the caller's buffers"
            );

            // The loop above really did compute the GEMM: cross-check the last result.
            let oracle = ReferenceEngine
                .gemm_i8_checksummed_two_pass(&a, pb.unpacked())
                .unwrap();
            assert_eq!(dest.acc(), oracle.acc(), "{kind}, {rows} rows");
            assert_eq!(dest.expected(), oracle.expected(), "{kind}, {rows} rows");
            assert_eq!(dest.observed(), oracle.observed(), "{kind}, {rows} rows");
        }
    }
}

#[test]
fn simd_protected_decode_steps_after_warmup_allocate_nothing() {
    let model = model_on(EngineKind::Simd);
    let mut protector = SchemeProtector::with_default_regions(
        ProtectionScheme::StatisticalAbft,
        SystolicArray::small(Dataflow::WeightStationary),
    );
    let allocations = count_decode_allocations(&model, &mut protector, 64, 40);
    assert_eq!(
        allocations, 0,
        "fault-free protected SIMD decode must perform zero heap allocations per step"
    );
}

#[test]
fn protected_decode_steps_after_warmup_allocate_nothing() {
    // Always-on detection must stay cheap enough to leave on: the fault-free statistical
    // ABFT inspection path (fused checksums + protector-owned scratch) is also
    // allocation-free after warmup.
    let model = reference_model();
    let mut protector = SchemeProtector::with_default_regions(
        ProtectionScheme::StatisticalAbft,
        SystolicArray::small(Dataflow::WeightStationary),
    );
    let allocations = count_decode_allocations(&model, &mut protector, 64, 40);
    assert_eq!(
        allocations, 0,
        "fault-free protected decode must perform zero heap allocations per step"
    );
}

/// Runs `steps` lockstep decode steps of a full four-slot batch (ragged contexts) through
/// one long-lived workspace and returns the heap allocations the steps performed.
fn count_batched_decode_allocations(
    model: &Model,
    hook: &mut dyn GemmHook,
    warmup: usize,
    steps: usize,
) -> u64 {
    let prompts: [&[u32]; 4] = [&[1, 2, 3, 4], &[5, 6], &[7, 8, 9], &[10]];
    let mut ws = Workspace::new();
    let mut cache = model.new_batched_cache(prompts.len());
    let chunks: Vec<PrefillChunk<'_>> = prompts
        .iter()
        .enumerate()
        .map(|(slot, prompt)| PrefillChunk::whole(prompt, slot))
        .collect();
    let logits = model
        .prefill_chunks_batch_ws(&chunks, &mut cache, hook, &mut ws)
        .unwrap();
    let mut tokens: Vec<Option<u32>> = logits
        .iter()
        .map(|l| Some(argmax_with_margin(l.row(l.rows() - 1)).0))
        .collect();
    let mut decode = |tokens: &mut Vec<Option<u32>>, ws: &mut Workspace| {
        let step_logits = model
            .decode_step_batch_ws(tokens, &mut cache, hook, ws)
            .unwrap();
        for (token, logits) in tokens.iter_mut().zip(step_logits) {
            let logits = logits.expect("every slot is active");
            *token = Some(argmax_with_margin(&logits).0);
            ws.recycle_vec_f32(logits);
        }
        ws.reset();
    };
    for _ in 0..warmup {
        decode(&mut tokens, &mut ws);
    }
    let before = allocations();
    for _ in 0..steps {
        decode(&mut tokens, &mut ws);
    }
    allocations() - before
}

#[test]
fn batched_decode_forward_pass_allocates_nothing_after_warmup() {
    // `decode_step_batch_ws` hands back a fresh `Vec` of per-slot logits and builds the
    // step's token list, length list and `RowPartition`: four small vectors per step that
    // its signature fixes. Everything below that entry point — the protector keeping the
    // announced partition (it refills its own offsets buffer), per-slot KV appends in
    // place, attention scratch, every GEMM — must allocate nothing, so the per-step count
    // may depend neither on the hook, nor on the number of layers, nor on the context
    // length.
    const ENTRY_POINT_VECTORS: u64 = 4;
    for engine in [EngineKind::Reference, EngineKind::Simd] {
        let deep = {
            let mut config = ModelConfig::tiny_opt();
            config.engine = engine;
            config.max_seq_len = 256;
            config.num_layers = 6;
            Model::new(&config, 42).unwrap()
        };
        for model in [model_on(engine), deep] {
            let mut protector = SchemeProtector::with_default_regions(
                ProtectionScheme::StatisticalAbft,
                SystolicArray::small(Dataflow::WeightStationary),
            );
            let hooks: [&mut dyn GemmHook; 2] = [&mut NoopHook, &mut protector];
            for hook in hooks {
                let allocations = count_batched_decode_allocations(&model, hook, 64, 40);
                assert_eq!(
                    allocations,
                    40 * ENTRY_POINT_VECTORS,
                    "{engine}, {} layers: a warmed batched decode step allocates only its \
                     entry point's bookkeeping vectors",
                    model.config().num_layers
                );
            }
        }
    }
}

/// A tensor-parallel model on `engine`: its engine is a `TpGroup` of `degree` shards, so
/// every weight GEMM is a dispatch — computed on `engine`, then overlaid with shard faults
/// and failed over — all on the calling thread.
fn sharded_model_on(engine: EngineKind, degree: usize) -> Model {
    let mut config = ModelConfig::tiny_opt();
    config.engine = engine;
    config.max_seq_len = 256;
    config.tp_degree = degree;
    Model::new(&config, 42).unwrap()
}

#[test]
fn sharded_decode_steps_after_warmup_allocate_nothing() {
    // The zero budget covers the whole sharded GEMM: the inner engine's product and the
    // per-stripe dispatch bookkeeping both run on the calling thread, which is the thread
    // the counter charges — there are no rank threads outside it. Everything was sized
    // during warmup; the steady-state sharded decode loop must not touch the heap.
    let model = sharded_model_on(EngineKind::Simd, 2);
    let allocations = count_decode_allocations(&model, &mut NoopHook, 64, 40);
    assert_eq!(
        allocations, 0,
        "steady-state sharded decode must perform zero heap allocations per step"
    );
}

#[test]
fn sharded_protected_decode_steps_after_warmup_allocate_nothing() {
    // The checksummed sharded path adds the per-shard checksum segments and the
    // protector's fused inspection on top — still zero allocations after warmup, counted
    // on the one thread that runs all of it, with a ragged shard count (3 does not divide
    // tiny-opt's projection widths).
    let model = sharded_model_on(EngineKind::Simd, 3);
    let mut protector = SchemeProtector::with_default_regions(
        ProtectionScheme::StatisticalAbft,
        SystolicArray::small(Dataflow::WeightStationary),
    );
    let allocations = count_decode_allocations(&model, &mut protector, 64, 40);
    assert_eq!(
        allocations, 0,
        "fault-free protected sharded decode must perform zero heap allocations per step"
    );
}

#[test]
fn sharded_failover_after_warmup_allocates_nothing() {
    // Every dispatch fails shard 1 over: a kill, then a garble its checksum segment
    // catches. The failover recompute lands in the group's resident scratch, which the
    // warmup sized, so a failing-over decode step allocates no more than a clean one.
    use realm::tensor::ShardFault;
    let model = sharded_model_on(EngineKind::Simd, 3);
    let group = model.tp_group().expect("model is sharded");
    for fault in [ShardFault::Kill, ShardFault::Garble { seed: 0x5EED }] {
        let before = group.shard_stats()[1].failovers;
        group.inject_shard_fault(1, fault, usize::MAX);
        let mut protector = SchemeProtector::with_default_regions(
            ProtectionScheme::StatisticalAbft,
            SystolicArray::small(Dataflow::WeightStationary),
        );
        let allocations = count_decode_allocations(&model, &mut protector, 64, 40);
        assert!(
            group.shard_stats()[1].failovers > before,
            "{fault:?} failed over"
        );
        assert_eq!(
            allocations, 0,
            "{fault:?}: a warmed failover must perform zero heap allocations per step"
        );
    }
}
