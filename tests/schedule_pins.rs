//! Nanosecond pins on the simulated schedules of every engine.
//!
//! Each line below is one engine run on one scenario: every
//! [`InferenceReport`] field, exactly (simulated times in ns, peak bytes,
//! the OOM string), plus, for the five Klotski presets, an FNV-1a checksum
//! over the full recorded timeline (resource, label, start and end of every
//! serviced task). A change to the simulator kernel or to any engine's DAG
//! builder that moves a single task by a nanosecond fails here.
//!
//! The scenarios cover the serving fleet's typical batch group, a
//! disk-staged Mixtral-8×22B run, a dense model, and a run that dies of
//! out-of-memory inside the simulation.

use klotski::baselines::all_engines;
use klotski::core::engine::{KlotskiConfig, KlotskiEngine};
use klotski::core::report::InferenceReport;
use klotski::core::scenario::{Engine, Scenario};
use klotski::model::hardware::HardwareSpec;
use klotski::model::spec::ModelSpec;
use klotski::model::workload::Workload;
use klotski::sim::metrics::TimelineEntry;

/// 64-bit FNV-1a over the timeline's fields, in completion order.
fn timeline_fnv(entries: &[TimelineEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in entries {
        eat(&[e.resource.index() as u8, e.meta.class as u8]);
        for v in [e.meta.layer, e.meta.batch, e.meta.expert, e.meta.step] {
            eat(&v.to_le_bytes());
        }
        eat(&e.start.as_nanos().to_le_bytes());
        eat(&e.end.as_nanos().to_le_bytes());
    }
    h
}

fn pin_line(r: &InferenceReport) -> String {
    let timeline = match &r.metrics {
        Some(m) => format!("{}:{:016x}", m.timeline().len(), timeline_fnv(m.timeline())),
        None => "none".to_owned(),
    };
    format!(
        "{}|{}|total={}|prefill={}|decode={}|tokens={}|busy={}|bubble={}|vram={}|dram={}|oom={:?}|timeline={}",
        r.engine,
        r.model,
        r.total_time.as_nanos(),
        r.prefill_time.as_nanos(),
        r.decode_time.as_nanos(),
        r.generated_tokens,
        r.gpu_busy.as_nanos(),
        r.gpu_bubble.as_nanos(),
        r.peak_vram,
        r.peak_dram,
        r.oom,
        timeline,
    )
}

/// The five Table 3 rows, each recording its full timeline.
fn klotski_presets() -> Vec<KlotskiEngine> {
    [
        KlotskiConfig::ablation_simple_pipeline(),
        KlotskiConfig::ablation_multi_batch(),
        KlotskiConfig::ablation_hot_prefetch(),
        KlotskiConfig::full(),
        KlotskiConfig::quantized(),
    ]
    .into_iter()
    .map(|cfg| {
        KlotskiEngine::new(KlotskiConfig {
            record_timeline: true,
            ..cfg
        })
    })
    .collect()
}

/// Pin lines of every engine on `sc`: the Klotski presets, then the five
/// baselines in the paper's order. An engine that rejects the scenario
/// pins its error.
fn pin_lines(sc: &Scenario) -> Vec<String> {
    let mut engines: Vec<Box<dyn Engine>> = klotski_presets()
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Engine>)
        .collect();
    engines.extend(all_engines());
    engines
        .iter()
        .map(|e| match e.run(sc) {
            Ok(r) => pin_line(&r),
            Err(err) => format!("{}|Err({err})", e.name()),
        })
        .collect()
}

fn check(what: &str, sc: &Scenario, expected: &[&str]) {
    let actual = pin_lines(sc);
    if actual != expected {
        let mut msg = format!("{what}: schedule pins moved; actual lines:\n");
        for line in &actual {
            msg.push_str(&format!("    {line:?},\n"));
        }
        panic!("{msg}");
    }
}

fn env1(spec: ModelSpec, wl: Workload, seed: u64) -> Scenario {
    Scenario::generate(spec, HardwareSpec::env1_rtx3090(), wl, seed)
}

#[test]
fn fleet_group_schedules_are_pinned() {
    // The serving fleet's typical batch group: 8 sequences, one batch.
    let sc = env1(ModelSpec::mixtral_8x7b(), Workload::new(8, 1, 128, 8), 2025);
    check(
        "Mixtral-8x7B fleet group",
        &sc,
        &[
            "Simple pipeline|Mixtral-8x7B|total=45632069662|prefill=6875389822|decode=38756679840|tokens=64|busy=3996360536|bubble=41295072810|vram=6334349312|dram=93547134976|oom=None|timeline=3473:199e7d679c6e77e7",
            "Klotski (whole-layer prefetch)|Mixtral-8x7B|total=45632069662|prefill=6875389822|decode=38756679840|tokens=64|busy=3996360536|bubble=41295072810|vram=6334349312|dram=93547134976|oom=None|timeline=3473:199e7d679c6e77e7",
            "Klotski (no reorder)|Mixtral-8x7B|total=37799114757|prefill=5832392080|decode=31966722677|tokens=64|busy=3996360536|bubble=33713656145|vram=2811101184|dram=93547134976|oom=None|timeline=5190:542b3123bfc6d865",
            "Klotski|Mixtral-8x7B|total=37661523404|prefill=5769787778|decode=31891735626|tokens=64|busy=3996360536|bubble=33576064792|vram=2806677504|dram=93547134976|oom=None|timeline=5190:52d6cfbed58eafd1",
            "Klotski (q)|Mixtral-8x7B|total=11192889146|prefill=2193102689|decode=8999786457|tokens=64|busy=3996360536|bubble=7172007608|vram=3863642112|dram=93547134976|oom=None|timeline=5190:dabee322fb57288a",
            "Accelerate|Mixtral-8x7B|total=132453596392|prefill=21247008983|decode=111206587409|tokens=64|busy=3996360536|bubble=128438558542|vram=4402989056|dram=93405577216|oom=None|timeline=none",
            "FastGen|Mixtral-8x7B|total=44305985280|prefill=5543745373|decode=38762239907|tokens=64|busy=3996360536|bubble=40304600550|vram=3782248448|dram=93405577216|oom=None|timeline=none",
            "FlexGen|Mixtral-8x7B|total=45632069662|prefill=6875389822|decode=38756679840|tokens=64|busy=3996360536|bubble=41295072810|vram=6334349312|dram=93547134976|oom=None|timeline=none",
            "MoE-Infinity|Mixtral-8x7B|total=36119156964|prefill=5495561264|decode=30623595700|tokens=64|busy=3996360536|bubble=32122796428|vram=22306471724|dram=93405577216|oom=None|timeline=none",
            "Fiddler|Mixtral-8x7B|total=14773557491|prefill=5078145325|decode=9695412166|tokens=64|busy=3014668532|bubble=11758888959|vram=22214543360|dram=93405577216|oom=None|timeline=none",
        ],
    );
}

#[test]
fn disk_staged_schedules_are_pinned() {
    // Mixtral-8x22B exceeds Env 1's DRAM, so Klotski stages expert layers
    // from disk through a sliding window.
    let sc = env1(ModelSpec::mixtral_8x22b(), Workload::new(8, 2, 64, 3), 6);
    let full = KlotskiEngine::new(KlotskiConfig {
        record_timeline: true,
        ..KlotskiConfig::full()
    })
    .run(&sc)
    .expect("engine run");
    let metrics = full.metrics.expect("timeline recorded");
    assert!(
        metrics
            .timeline()
            .iter()
            .any(|e| e.meta.class == klotski::sim::task::OpClass::DiskStage),
        "the scenario must exercise disk staging"
    );
    check(
        "Mixtral-8x22B disk-staged",
        &sc,
        &[
            "Simple pipeline|Mixtral-8x22B|total=579642318715|prefill=387177233248|decode=192465085467|tokens=48|busy=9064593490|bubble=569991917464|vram=10824531968|dram=204192907264|oom=None|timeline=4700:53084d6e4ea084ea",
            "Klotski (whole-layer prefetch)|Mixtral-8x22B|total=291467614477|prefill=98656402409|decode=192811212068|tokens=48|busy=9064593490|bubble=281817213226|vram=10827481088|dram=204192874496|oom=None|timeline=4142:9c455a72a9dd9d29",
            "Klotski (no reorder)|Mixtral-8x22B|total=289048020982|prefill=97121501453|decode=191926519529|tokens=48|busy=8179652821|bubble=280713854528|vram=7203504128|dram=204192874496|oom=None|timeline=4365:d8f2b5717452de64",
            "Klotski|Mixtral-8x22B|total=288791390483|prefill=96880217692|decode=191911172791|tokens=48|busy=8179652821|bubble=280457224029|vram=4783325184|dram=204192874496|oom=None|timeline=4365:12ccf9d54402d74e",
            "Klotski (q)|Mixtral-8x22B|total=269749769483|prefill=90771830602|decode=178977938881|tokens=48|busy=8179652821|bubble=261527705760|vram=6595264512|dram=204192874496|oom=None|timeline=4365:6cebca3d668d0c20",
            "Accelerate|Mixtral-8x22B|total=555730916521|prefill=388281959648|decode=167448956873|tokens=48|busy=9064593490|bubble=546629335621|vram=6761539584|dram=256000000000|oom=None|timeline=none",
            "FastGen|Mixtral-8x22B|total=390187929120|prefill=260127287179|decode=130060641941|tokens=48|busy=9064593490|bubble=381112818407|vram=5553580032|dram=256000000000|oom=None|timeline=none",
            "FlexGen|Mixtral-8x22B|total=291467614477|prefill=98656402409|decode=192811212068|tokens=48|busy=9064593490|bubble=281817213226|vram=10827481088|dram=204192874496|oom=None|timeline=none",
            "MoE-Infinity|Mixtral-8x22B|total=331704888319|prefill=231554540080|decode=100150348239|tokens=48|busy=9064593490|bubble=322640294829|vram=23249174316|dram=256000000000|oom=None|timeline=none",
            "Fiddler|Mixtral-8x22B|total=299771879159|prefill=215811367314|decode=83960511845|tokens=48|busy=7399013951|bubble=292372865208|vram=23135520768|dram=256000000000|oom=None|timeline=none",
        ],
    );
}

#[test]
fn dense_schedules_are_pinned() {
    let sc = env1(ModelSpec::opt_1_3b(), Workload::new(4, 4, 128, 4), 1);
    check(
        "OPT-1.3B dense",
        &sc,
        &[
            "Simple pipeline|OPT-1.3B|total=2455611938|prefill=2001867909|decode=453744029|tokens=64|busy=1430951136|bubble=1015381207|vram=617627648|dram=3240034304|oom=None|timeline=2209:77fa454ee123727c",
            "Klotski (whole-layer prefetch)|OPT-1.3B|total=1436973486|prefill=640635822|decode=796337664|tokens=64|busy=1430951136|bubble=0|vram=635191296|dram=3240034304|oom=None|timeline=1633:43d9f1cda502b5ec",
            "Klotski (no reorder)|OPT-1.3B|total=1436973486|prefill=640635822|decode=796337664|tokens=64|busy=1430951136|bubble=0|vram=635191296|dram=3240034304|oom=None|timeline=1633:43d9f1cda502b5ec",
            "Klotski|OPT-1.3B|total=1436973486|prefill=640635822|decode=796337664|tokens=64|busy=1430951136|bubble=0|vram=635191296|dram=3240034304|oom=None|timeline=1633:43d9f1cda502b5ec",
            "Klotski (q)|OPT-1.3B|total=1432619669|prefill=636282005|decode=796337664|tokens=64|busy=1430951136|bubble=0|vram=635191296|dram=3240034304|oom=None|timeline=1633:8749999ea8e952ba",
            "Accelerate|OPT-1.3B|total=9880679904|prefill=8097271344|decode=1783408560|tokens=64|busy=1430951136|bubble=8427724266|vram=1424697344|dram=2827943936|oom=None|timeline=none",
            "FastGen|OPT-1.3B|total=2371815377|prefill=1941463422|decode=430351955|tokens=64|busy=1430951136|bubble=934841891|vram=1629177856|dram=2827943936|oom=None|timeline=none",
            "FlexGen|OPT-1.3B|total=1436973486|prefill=640635822|decode=796337664|tokens=64|busy=1430951136|bubble=0|vram=635191296|dram=3240034304|oom=None|timeline=none",
            "MoE-Infinity|Err(invalid configuration: MoE-Infinity serves MoE models only)",
            "Fiddler|Err(invalid configuration: Fiddler serves MoE models only)",
        ],
    );
}

#[test]
fn out_of_memory_schedules_are_pinned() {
    // 64 sequences of 2048 prompt tokens: the single-batch baselines claim
    // their KV region in the simulation and die of VRAM exhaustion there.
    let sc = env1(ModelSpec::mixtral_8x7b(), Workload::new(64, 1, 2048, 2), 7);
    check(
        "Mixtral-8x7B out of memory",
        &sc,
        &[
            "Simple pipeline|Mixtral-8x7B|total=266798940814|prefill=260438206611|decode=6360734203|tokens=128|busy=260446079306|bubble=6012225192|vram=7407566848|dram=110593835008|oom=None|timeline=929:ad1a611cf3e9eecb",
            "Klotski (whole-layer prefetch)|Mixtral-8x7B|total=266798940814|prefill=260438206611|decode=6360734203|tokens=128|busy=260446079306|bubble=6012225192|vram=7407566848|dram=110593835008|oom=None|timeline=929:ad1a611cf3e9eecb",
            "Klotski (no reorder)|Mixtral-8x7B|total=267194475202|prefill=260690704851|decode=6503770351|tokens=128|busy=260446079306|bubble=6659297820|vram=4756766720|dram=110593835008|oom=None|timeline=1441:2e1f06296ec45309",
            "Klotski|Mixtral-8x7B|total=266688541124|prefill=260186668371|decode=6501872753|tokens=128|busy=260446079306|bubble=6153363742|vram=4756766720|dram=110593835008|oom=None|timeline=1441:4d749a7bbd26b2b8",
            "Klotski (q)|Mixtral-8x7B|total=262664885951|prefill=260122091297|decode=2542794654|tokens=128|busy=260446079306|bubble=2194285643|vram=4756766720|dram=110593835008|oom=None|timeline=1441:5d92344c16bbf30b",
            "Accelerate|Mixtral-8x7B|total=2855588762|prefill=2855588762|decode=0|tokens=128|busy=2619063244|bubble=217848204|vram=23956834304|dram=93405577216|oom=Some(\"e-load L0 e3 s0: out of memory on vram: requested 352321536 B with 23956834304 / 24000000000 B in use\")|timeline=none",
            "FastGen|Mixtral-8x7B|total=68062655|prefill=68062655|decode=0|tokens=128|busy=0|bubble=0|vram=23956834304|dram=93405577216|oom=Some(\"e-load L0 e3 s0: out of memory on vram: requested 352321536 B with 23956834304 / 24000000000 B in use\")|timeline=none",
            "FlexGen|Mixtral-8x7B|total=266798940814|prefill=260438206611|decode=6360734203|tokens=128|busy=260446079306|bubble=6012225192|vram=7407566848|dram=110593835008|oom=None|timeline=none",
            "MoE-Infinity|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=128|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"resident footprint 84.2 GB (weights 3.2 + KV 17.2 + activations 60.1 + expert buffers 2.8) exceeds VRAM 24.0 GB\")|timeline=none",
            "Fiddler|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=128|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"resident footprint 84.2 GB (weights 3.2 + KV 17.2 + activations 60.1 + expert buffers 2.8) exceeds VRAM 24.0 GB\")|timeline=none",
        ],
    );
}

#[test]
fn rejected_run_schedules_are_pinned() {
    // 512 sequences of 4096 prompt tokens: every engine rejects the run
    // before simulating it, each through its own admission check.
    let sc = env1(ModelSpec::mixtral_8x7b(), Workload::new(512, 1, 4096, 2), 7);
    check(
        "Mixtral-8x7B rejected before simulation",
        &sc,
        &[
            "Simple pipeline|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"placement infeasible: working set 37.9 GB exceeds VRAM 24.0 GB\")|timeline=none",
            "Klotski (whole-layer prefetch)|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"placement infeasible: working set 37.9 GB exceeds VRAM 24.0 GB\")|timeline=none",
            "Klotski (no reorder)|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"placement infeasible: working set 37.9 GB exceeds VRAM 24.0 GB\")|timeline=none",
            "Klotski|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"placement infeasible: working set 37.9 GB exceeds VRAM 24.0 GB\")|timeline=none",
            "Klotski (q)|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"placement infeasible: working set 37.9 GB exceeds VRAM 24.0 GB\")|timeline=none",
            "Accelerate|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"activation workspace exceeds VRAM\")|timeline=none",
            "FastGen|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"activation workspace exceeds VRAM\")|timeline=none",
            "FlexGen|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"placement infeasible: working set 37.9 GB exceeds VRAM 24.0 GB\")|timeline=none",
            "MoE-Infinity|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"resident footprint 2068.5 GB (weights 3.2 + KV 275.0 + activations 1786.7 + expert buffers 2.8) exceeds VRAM 24.0 GB\")|timeline=none",
            "Fiddler|Mixtral-8x7B|total=0|prefill=0|decode=0|tokens=1024|busy=0|bubble=0|vram=0|dram=0|oom=Some(\"resident footprint 2068.5 GB (weights 3.2 + KV 275.0 + activations 1786.7 + expert buffers 2.8) exceeds VRAM 24.0 GB\")|timeline=none",
        ],
    );
}
