//! Golden pin of CLI-benchmark data capture: the random-input cost that
//! the §IV-A libc++/libstdc++ inversion (`stdlib_asymmetry`) and the
//! Fig. 4 capture column are built on.
//!
//! For {MobileNetV1, InceptionV3} × {F32, I8} × {libc++, libstdc++} on
//! TFLite CPU ×4, the golden holds the model-init span and every
//! iteration's `DataCapture` and end-to-end span in nanoseconds, compared
//! exactly. Any change to how capture is priced — or to what the rest of
//! the pipeline sees because of it — shows up here cell by cell.

use std::fmt::Write as _;

use aitax::capture::StdlibFlavor;
use aitax::core::pipeline::E2eConfig;
use aitax::core::stage::Stage;
use aitax::framework::Engine;
use aitax::models::zoo::ModelId;
use aitax::tensor::DType;
use aitax::testkit::{check_golden, Tolerance};

const ITERATIONS: usize = 8;
const SEED: u64 = 17;

#[test]
fn cli_capture_matches_golden() {
    let mut out = String::from("model\tdtype\tstdlib\titer\tcapture_ns\te2e_ns\n");
    for model in [ModelId::MobileNetV1, ModelId::InceptionV3] {
        for dtype in [DType::F32, DType::I8] {
            for flavor in [StdlibFlavor::LibCxx, StdlibFlavor::LibStdCxx] {
                let r = E2eConfig::new(model, dtype)
                    .engine(Engine::tflite_cpu(4))
                    .stdlib(flavor)
                    .iterations(ITERATIONS)
                    .seed(SEED)
                    .run();
                let prefix = format!("{model}\t{dtype}\t{flavor:?}");
                writeln!(out, "{prefix}\tinit\t-\t{}", r.model_init.as_ns()).unwrap();
                for (i, b) in r.tax.breakdowns().iter().enumerate() {
                    writeln!(
                        out,
                        "{prefix}\t{i}\t{}\t{}",
                        b.stage(Stage::DataCapture).as_ns(),
                        b.e2e().as_ns()
                    )
                    .unwrap();
                }
            }
        }
    }
    check_golden("cli_capture", &out, Tolerance::EXACT);
}
