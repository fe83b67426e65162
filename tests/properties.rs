//! Property-based tests over the core data structures and codecs
//! (proptest): archive/codec roundtrips, checksum stability, statistics
//! invariants and quantisation error bounds.

use gaugenn::analysis::md5::md5_hex;
use gaugenn::analysis::stats::{line_fit, Ecdf};
use gaugenn::apk::crc32::crc32;
use gaugenn::apk::dex::{Dex, DexBuilder};
use gaugenn::apk::zip::{ZipArchive, ZipWriter};
use gaugenn::dnn::tensor::QuantParams;
use gaugenn::modelfmt::minipb::{unpack_floats, unpack_varints, PbReader, PbWriter};
use proptest::prelude::*;

proptest! {
    #[test]
    fn zip_roundtrips_arbitrary_entries(
        entries in prop::collection::vec(
            ("[a-z0-9_/]{1,24}", prop::collection::vec(any::<u8>(), 0..512)),
            0..8,
        )
    ) {
        let mut w = ZipWriter::new();
        let mut expected: Vec<(String, Vec<u8>)> = Vec::new();
        for (name, data) in entries {
            if w.add(name.clone(), data.clone()).is_ok() {
                expected.push((name, data));
            }
        }
        let (bytes, _) = w.finish();
        let archive = ZipArchive::parse(&bytes).unwrap();
        prop_assert_eq!(archive.len(), expected.len());
        for (name, data) in &expected {
            prop_assert_eq!(archive.get(name), Some(data.as_slice()));
        }
    }

    #[test]
    fn zip_rejects_any_single_byte_corruption_of_payload(
        data in prop::collection::vec(any::<u8>(), 16..128),
        flip in 0usize..16,
        xor in 1u8..=255,
    ) {
        let mut w = ZipWriter::new();
        w.add("f", data.clone()).unwrap();
        let (mut bytes, _) = w.finish();
        // Payload begins after 30-byte local header + 1-byte name.
        let idx = 31 + (flip % data.len());
        bytes[idx] ^= xor;
        prop_assert!(ZipArchive::parse(&bytes).is_err());
    }

    #[test]
    fn dex_string_table_roundtrips(
        strings in prop::collection::vec("[ -~]{0,64}", 0..16)
    ) {
        let mut b = DexBuilder::new();
        for s in &strings {
            b.add_string(s.clone());
        }
        let dex = Dex::parse(&b.finish()).unwrap();
        prop_assert_eq!(dex.strings(), &strings[..]);
    }

    #[test]
    fn minipb_varints_roundtrip(vals in prop::collection::vec(any::<u64>(), 0..64)) {
        let mut w = PbWriter::new();
        w.packed_varints(1, &vals);
        let bytes = w.finish();
        let mut r = PbReader::new(&bytes);
        let (_, v) = r.next_field().unwrap();
        prop_assert_eq!(unpack_varints(v.as_bytes().unwrap()).unwrap(), vals);
    }

    #[test]
    fn minipb_floats_roundtrip_bitexact(vals in prop::collection::vec(any::<f32>(), 0..64)) {
        let mut w = PbWriter::new();
        w.packed_floats(7, &vals);
        let bytes = w.finish();
        let mut r = PbReader::new(&bytes);
        let (_, v) = r.next_field().unwrap();
        let back = unpack_floats(v.as_bytes().unwrap()).unwrap();
        prop_assert_eq!(back.len(), vals.len());
        for (a, b) in back.iter().zip(&vals) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn md5_and_crc_are_deterministic_and_sensitive(
        data in prop::collection::vec(any::<u8>(), 1..256),
        idx in 0usize..256,
        xor in 1u8..=255,
    ) {
        let idx = idx % data.len();
        let mut mutated = data.clone();
        mutated[idx] ^= xor;
        prop_assert_eq!(md5_hex(&data), md5_hex(&data));
        prop_assert_ne!(md5_hex(&data), md5_hex(&mutated));
        prop_assert_ne!(crc32(&data), crc32(&mutated));
    }

    #[test]
    fn md5_block_kernel_matches_reference(
        data in prop::collection::vec(any::<u8>(), 0..700),
        split in 0usize..700,
    ) {
        use gaugenn::analysis::md5::{digest_hex, reference, Md5};
        // One-shot block kernel vs the original copy-and-pad scalar.
        prop_assert_eq!(md5_hex(&data), digest_hex(reference::md5(&data)));
        // Streaming at an arbitrary split point agrees too.
        let split = split % (data.len() + 1);
        let mut h = Md5::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize_hex(), digest_hex(reference::md5(&data)));
    }

    #[test]
    fn md5_block_kernel_matches_reference_at_block_boundaries(
        fill in any::<u8>(),
        delta in 0usize..3,
        blocks in 0usize..4,
    ) {
        use gaugenn::analysis::md5::{digest_hex, reference};
        // Exactly the padding edge cases: empty, 1 byte, and lengths
        // straddling the 55/56/64-byte block and length-field boundaries.
        for base in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let len = base + delta + 64 * blocks;
            let data = vec![fill; len];
            prop_assert_eq!(md5_hex(&data), digest_hex(reference::md5(&data)), "len {}", len);
        }
    }

    #[test]
    fn crc32_sliced_kernel_matches_reference(
        data in prop::collection::vec(any::<u8>(), 0..700),
        split in 0usize..700,
    ) {
        use gaugenn::apk::crc32::{reference, Crc32};
        // Slice-by-16 vs the original byte-at-a-time table loop, covering
        // the empty input, the scalar tail (len % 16 != 0) and multi-fold
        // runs in one strategy.
        prop_assert_eq!(crc32(&data), reference::crc32(&data));
        let split = split % (data.len() + 1);
        let mut c = Crc32::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finalize(), reference::crc32(&data));
    }

    #[test]
    fn crc32_sliced_kernel_matches_reference_at_fold_boundaries(
        fill in any::<u8>(),
        delta in 0usize..9,
    ) {
        use gaugenn::apk::crc32::reference;
        // Empty, 1 byte, and every length around the 16-byte fold window
        // and its first multiples.
        for base in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64] {
            let data = vec![fill; base + delta];
            prop_assert_eq!(crc32(&data), reference::crc32(&data), "len {}", base + delta);
        }
    }

    #[test]
    fn quantisation_error_bounded_by_half_scale(
        scale in 0.001f32..1.0,
        zero in -20i32..20,
        x in -50.0f32..50.0,
    ) {
        let q = QuantParams { scale, zero_point: zero };
        let back = q.dequantize(q.quantize(x));
        // Inside the representable range the error is at most scale/2.
        let lo = q.dequantize(i8::MIN);
        let hi = q.dequantize(i8::MAX);
        if x >= lo && x <= hi {
            prop_assert!((back - x).abs() <= scale / 2.0 + 1e-6,
                "x={x} back={back} scale={scale}");
        } else {
            // Saturated: result clamps to the range edge.
            prop_assert!(back >= lo - scale && back <= hi + scale);
        }
    }

    #[test]
    fn ecdf_is_a_valid_distribution(sample in prop::collection::vec(-1e6f64..1e6, 1..128)) {
        let e = Ecdf::new(sample.clone());
        // Monotone non-decreasing, 0 before min, 1 at max.
        let min = sample.iter().cloned().fold(f64::MAX, f64::min);
        let max = sample.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.eval(min - 1.0), 0.0);
        prop_assert_eq!(e.eval(max), 1.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = min + (max - min) * i as f64 / 20.0;
            let y = e.eval(x);
            prop_assert!(y >= prev - 1e-12);
            prev = y;
        }
        // Quantiles come from the sample.
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            prop_assert!(sample.contains(&e.quantile(q)));
        }
    }

    #[test]
    fn line_fit_recovers_exact_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        xs in prop::collection::btree_set(-1000i32..1000, 2..32),
    ) {
        let pts: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x as f64, slope * x as f64 + intercept))
            .collect();
        let f = line_fit(&pts).unwrap();
        prop_assert!((f.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((f.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        prop_assert!(f.r2 > 1.0 - 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn graph_codec_roundtrips_random_zoo_models(seed in 0u64..5000, task_idx in 0usize..23) {
        use gaugenn::dnn::task::Task;
        use gaugenn::dnn::zoo::{build_for_task, SizeClass};
        use gaugenn::modelfmt::graphcodec::{decode_graph, encode_graph};
        let task = Task::ALL[task_idx];
        let g = build_for_task(task, seed, SizeClass::Small, seed % 2 == 0).graph;
        let back = decode_graph(&encode_graph(&g)).unwrap().materialise();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn every_framework_artifact_validates_and_decodes(seed in 0u64..2000) {
        use gaugenn::dnn::task::Task;
        use gaugenn::dnn::zoo::{build_for_task, SizeClass};
        use gaugenn::modelfmt::{decode, encode, validate, Framework};
        let g = build_for_task(Task::MovementTracking, seed, SizeClass::Small, true).graph;
        for fw in Framework::BENCHMARKED {
            let art = encode(&g, fw).unwrap();
            for (name, bytes) in &art.files {
                prop_assert!(validate(name, bytes).is_some(), "{:?} {}", fw, name);
            }
            prop_assert_eq!(decode(fw, &art.files).unwrap(), g.clone());
        }
    }

    #[test]
    fn rebatch_consistent_for_random_models(seed in 0u64..2000, batch in 2usize..32) {
        use gaugenn::dnn::task::Task;
        use gaugenn::dnn::trace::{rebatch, trace_graph, trace_graph_batched};
        use gaugenn::dnn::zoo::{build_for_task, SizeClass};
        let task = Task::ALL[(seed % 23) as usize];
        let g = build_for_task(task, seed, SizeClass::Small, true).graph;
        let t1 = trace_graph(&g).unwrap();
        let direct = trace_graph_batched(&g, batch).unwrap();
        let scaled = rebatch(&t1, batch).unwrap();
        prop_assert_eq!(direct, scaled);
        // Past where the counts overflow `u64`, both fail together, and
        // where both succeed they agree.
        for huge in [1usize << 30, 1 << 40, 1 << 50, 1 << 62] {
            let direct = trace_graph_batched(&g, huge);
            let scaled = rebatch(&t1, huge);
            prop_assert_eq!(direct.is_ok(), scaled.is_ok(), "{:?} batch {}", task, huge);
            if let (Ok(direct), Ok(scaled)) = (direct, scaled) {
                prop_assert_eq!(direct, scaled);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn executor_output_shapes_match_inference(seed in 0u64..1000) {
        // The executor's runtime shapes must agree with static inference
        // for every (cheap) zoo family.
        use gaugenn::dnn::exec::Executor;
        use gaugenn::dnn::shape::infer_shapes;
        use gaugenn::dnn::task::Task;
        use gaugenn::dnn::zoo::{build_for_task, SizeClass};
        let cheap = [
            Task::MovementTracking,
            Task::CrashDetection,
            Task::KeywordDetection,
            Task::SentimentPrediction,
        ];
        let task = cheap[(seed % cheap.len() as u64) as usize];
        let g = build_for_task(task, seed, SizeClass::Small, true).graph;
        let shapes = infer_shapes(&g).unwrap();
        let ex = Executor::new(&g).unwrap();
        let outs = ex.run_random(1, seed).unwrap();
        for (out, &node) in outs.iter().zip(&g.outputs) {
            prop_assert_eq!(&out.shape, &shapes[node], "{:?}", task);
        }
    }

    #[test]
    fn obb_roundtrip_arbitrary_files(
        version in 1u32..1000,
        files in prop::collection::vec(("[a-z]{1,12}", prop::collection::vec(any::<u8>(), 0..128)), 0..5),
    ) {
        use gaugenn::apk::obb::{build_obb, Obb, ObbKind};
        let mut uniq: Vec<(String, Vec<u8>)> = Vec::new();
        for (name, data) in files {
            if !uniq.iter().any(|(n, _)| *n == name) {
                uniq.push((name, data));
            }
        }
        let refs: Vec<(&str, Vec<u8>)> = uniq.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        let (name, bytes) = build_obb(ObbKind::Main, version, "com.a.b", &refs).unwrap();
        let obb = Obb::parse(&name, &bytes).unwrap();
        prop_assert_eq!(obb.version_code, version);
        prop_assert_eq!(obb.archive.len(), uniq.len());
        for (n, d) in &uniq {
            prop_assert_eq!(obb.archive.get(n), Some(d.as_slice()));
        }
    }

    #[test]
    fn latency_monotone_in_batch(seed in 0u64..500, b1 in 1usize..8, extra in 1usize..8) {
        // More samples can never be faster end-to-end.
        use gaugenn::dnn::task::Task;
        use gaugenn::dnn::trace::{rebatch, trace_graph};
        use gaugenn::dnn::zoo::{build_for_task, SizeClass};
        use gaugenn::soc::sched::ThreadConfig;
        use gaugenn::soc::spec::device;
        use gaugenn::soc::thermal::ThermalState;
        use gaugenn::soc::Backend;
        let g = build_for_task(Task::KeywordDetection, seed, SizeClass::Small, true).graph;
        let t = trace_graph(&g).unwrap();
        let d = device("S21").unwrap();
        let cool = ThermalState::cool();
        let cpu = Backend::Cpu(ThreadConfig::unpinned(4));
        let small = gaugenn::soc::estimate_latency(&d, cpu, &rebatch(&t, b1).unwrap(), &cool).unwrap();
        let big = gaugenn::soc::estimate_latency(&d, cpu, &rebatch(&t, b1 + extra).unwrap(), &cool).unwrap();
        prop_assert!(big.total_ms >= small.total_ms);
        // …but throughput must not collapse: the bigger batch processes
        // more samples per unit time than a linear slowdown would imply.
        prop_assert!(big.total_ms <= small.total_ms * (b1 + extra) as f64 / b1 as f64 + 1e-9);
    }

    #[test]
    fn fine_tuned_models_share_majority_of_weights(seed in 0u64..300, layers in 1usize..3) {
        use gaugenn::analysis::dedup::layer_checksums;
        use gaugenn::dnn::task::Task;
        use gaugenn::dnn::zoo::{build_for_task, fine_tune, SizeClass};
        let base = build_for_task(Task::ImageClassification, seed, SizeClass::Small, true).graph;
        let ft = fine_tune(&base, layers, seed ^ 0xF00D);
        let a = layer_checksums(&base);
        let b = layer_checksums(&ft);
        prop_assert_eq!(a.len(), b.len());
        let differing = a.iter().zip(&b).filter(|(x, y)| x.0 != y.0).count();
        prop_assert_eq!(differing, layers);
    }
}

proptest! {
    #[test]
    fn percent_encoding_roundtrips_any_string(s in "\\PC{0,40}") {
        use gaugenn::playstore::proto::{decode_component, encode_component};
        prop_assert_eq!(decode_component(&encode_component(&s)), s);
    }

    #[test]
    fn job_files_roundtrip_any_counts(
        warmups in 0u32..100,
        runs in 1u32..1000,
        sleep_ms in 0u32..10_000,
        batch in 1usize..64,
    ) {
        use gaugenn::harness::job::JobSpec;
        use gaugenn::soc::sched::ThreadConfig;
        use gaugenn::soc::Backend;
        let spec = JobSpec {
            warmups,
            runs,
            sleep_ms,
            batch,
            ..JobSpec::new(7, "m.tflite", Backend::Cpu(ThreadConfig::unpinned(4)))
        };
        prop_assert_eq!(JobSpec::from_text(&spec.to_text()).unwrap(), spec);
    }
}


// ---------------------------------------------------------------------------
// Route wire grammar: `Route::wire_path` and `Route::parse` are exact
// inverses for every variant, query routes included — arbitrary decoded
// text (spaces, `&`, `=`, `%`, unicode) must survive the percent-
// encoding round trip, and numeric filters must come back bit-exact.

/// SplitMix64 step, the file-local seedable generator for route fuzzing.
fn route_rng(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Adversarial decoded text: characters the wire grammar must escape
/// (separators, percent signs, multi-byte scalars) plus plain ASCII.
fn wire_text(state: &mut u64, max: u64) -> String {
    const POOL: [char; 17] = [
        'a', 'z', '0', ' ', '&', '=', '%', '?', '/', '+', '.', '-', '_', '~', 'é', '☃', '中',
    ];
    let len = route_rng(state) % (max + 1);
    (0..len)
        .map(|_| POOL[(route_rng(state) % POOL.len() as u64) as usize])
        .collect()
}

fn opt_u64(state: &mut u64) -> Option<u64> {
    (route_rng(state).is_multiple_of(2)).then(|| route_rng(state))
}

fn opt_text(state: &mut u64, max: u64) -> Option<String> {
    (route_rng(state).is_multiple_of(2)).then(|| wire_text(state, max))
}

fn texts(state: &mut u64, upto: u64, max: u64) -> Vec<String> {
    (0..route_rng(state) % (upto + 1))
        .map(|_| wire_text(state, max))
        .collect()
}

/// One seeded route, covering every variant with adversarial text in
/// every free-text slot (packages are kept non-empty: the store rejects
/// empty package paths, so they are outside the invertible surface).
fn route_from_seed(seed: u64) -> gaugenn::playstore::Route {
    use gaugenn::index::{AppQuery, ModelQuery};
    use gaugenn::playstore::Route;
    let mut state = seed;
    let s = &mut state;
    let package = |s: &mut u64| format!("p{}", wire_text(s, 10));
    match route_rng(s) % 9 {
        0 => Route::Categories,
        1 => Route::Category {
            name: wire_text(s, 10),
            start: route_rng(s) as usize,
            count: route_rng(s) as usize,
        },
        2 => Route::App { package: package(s) },
        3 => Route::Apk { package: package(s) },
        4 => Route::Obb { package: package(s) },
        5 => Route::Bundle { package: package(s) },
        6 => Route::QueryModels(ModelQuery {
            frameworks: texts(s, 2, 8),
            tasks: texts(s, 2, 8),
            modalities: texts(s, 2, 6),
            quantised: (route_rng(s).is_multiple_of(2)).then(|| route_rng(s).is_multiple_of(2)),
            snapshot: opt_text(s, 8),
            min_flops: opt_u64(s),
            max_flops: opt_u64(s),
            min_params: opt_u64(s),
            max_params: opt_u64(s),
            min_size: opt_u64(s),
            max_size: opt_u64(s),
            limit: opt_u64(s),
        }),
        7 => Route::QueryApps(AppQuery {
            categories: texts(s, 2, 10),
            ml_only: route_rng(s).is_multiple_of(2),
            cloud: (route_rng(s).is_multiple_of(2)).then(|| route_rng(s).is_multiple_of(2)),
            snapshot: opt_text(s, 8),
            limit: opt_u64(s),
        }),
        _ => Route::QueryStats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_route_roundtrips_its_wire_path(seed in any::<u64>()) {
        use gaugenn::playstore::Route;
        let route = route_from_seed(seed);
        let wire = route.wire_path();
        prop_assert_eq!(Route::parse(&wire), Some(route.clone()), "wire: {wire:?} route: {route:?}");
    }
}
