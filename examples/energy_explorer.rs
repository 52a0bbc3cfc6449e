//! Energy explorer: the power/energy/battery view of one ML workload.
//!
//! Runs a quantized MobileNet camera app on the simulated Pixel 3 (SD845)
//! through two backends — four CPU threads vs the Hexagon DSP — and asks
//! the questions latency numbers cannot answer:
//!
//! 1. where do the joules go, stage by stage and rail by rail?
//! 2. what does the power draw look like over time (peak vs mean)?
//! 3. how many inferences does a 3300 mAh battery buy per backend?
//!
//! Run with: `cargo run --example energy_explorer`

use aitax::core::pipeline::{E2eConfig, E2eReport};
use aitax::core::runmode::RunMode;
use aitax::core::stage::Stage;
use aitax::des::SimSpan;
use aitax::framework::Engine;
use aitax::models::zoo::ModelId;
use aitax::power::{typical_phone_battery, Battery, MeterIndex};
use aitax::soc::{SocCatalog, SocId};
use aitax::tensor::DType;

fn run(engine: Engine) -> E2eReport {
    E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(engine)
        .run_mode(RunMode::AndroidApp)
        .iterations(30)
        .seed(7)
        .tracing(true)
        .run()
}

#[expect(
    clippy::expect_used,
    reason = "the run is traced, so it carries a trace and an energy report"
)]
fn explore(name: &str, engine: Engine) -> f64 {
    println!("==================== {name} ====================\n");
    let report = run(engine);
    let energy = report.energy.as_ref().expect("tracing enabled");

    // 1. Stage-by-stage joules, next to the latency split.
    println!("stage              mean_ms      mJ  (share of staged energy)");
    let staged = energy.staged_j().max(f64::MIN_POSITIVE);
    for stage in Stage::ALL {
        let stage_j = energy.stage_j(stage);
        println!(
            "{stage:<18} {:>7.2} {:>7.1}  ({:>4.1}%)",
            report.summary(stage).mean_ms(),
            stage_j * 1e3,
            100.0 * stage_j / staged,
        );
    }
    println!(
        "\nenergy tax {:.0}% vs time tax {:.0}%",
        energy.energy_tax_fraction() * 100.0,
        report.ai_tax_fraction() * 100.0
    );

    // 2. The power timeline: what a power rail scope would show.
    let trace = report.trace.as_ref().expect("tracing enabled");
    let spec = &SocCatalog::get(SocId::Sd845).power;
    let end = trace
        .last()
        .map(|e| e.time)
        .unwrap_or(aitax::des::SimTime::ZERO);
    let timeline = MeterIndex::new(spec, trace).power_timeline(SimSpan::from_ms(50.0), end);
    let peak = timeline.peak_total_watts();
    println!(
        "power: mean {:.2} W, peak 50ms-bin {peak:.2} W",
        energy.mean_power_w()
    );
    let peak_floor = peak.max(1e-9);
    let bars: String = (0..timeline.bins().min(60))
        .map(|b| {
            let w = timeline.total_watts(b);
            match (8.0 * w / peak_floor) as u32 {
                0 => ' ',
                1 => '.',
                2 | 3 => ':',
                4 | 5 => '|',
                _ => '#',
            }
        })
        .collect();
    println!("watts/50ms [{bars}]");

    // 3. What the joules mean for battery life.
    let mut battery = Battery::new(typical_phone_battery());
    battery.drain(energy.total_j());
    let per_inf = energy.energy_per_inference_j();
    println!(
        "\nbattery: run drained {:.2}% of 3300 mAh; {:.0}k inferences on a full charge\n",
        (1.0 - battery.state_of_charge()) * 100.0,
        battery.spec().capacity_j / per_inf / 1e3
    );
    per_inf
}

fn main() {
    let cpu = explore("TFLite CPU x4", Engine::tflite_cpu(4));
    let dsp = explore("Hexagon DSP", Engine::TfLiteHexagon { threads: 4 });
    println!(
        "====> DSP offload spends {:.1}x less energy per inference than CPU x4",
        cpu / dsp
    );
}
