//! The exhibits' public surface: the static Tables I/II and the Fig. 7
//! phase table keep the paper's shape, and every exhibit's text is the
//! same whatever the pool's thread count, because the exhibit runner
//! merges results in input order.

use aitax_bench::{fig7, table1, table2, Knobs, EXHIBITS};

#[test]
fn every_exhibit_is_identical_at_1_and_3_threads() {
    let knobs = |threads| Knobs {
        iterations: 2,
        seed: 1,
        threads,
    };
    for (name, run) in EXHIBITS {
        assert_eq!(run(knobs(1)), run(knobs(3)), "exhibit {name}");
    }
}

#[test]
fn table1_matches_paper_shape() {
    let t = table1();
    assert_eq!(t.len(), 11);
    // Spot rows.
    let rows = t.rows();
    assert_eq!(rows[0][1], "MobileNet 1.0 v1");
    assert_eq!(rows[4][1], "AlexNet");
    assert_eq!(rows[4][5], "N"); // AlexNet NNAPI-fp32 = N
    assert_eq!(rows[10][2], "-"); // BERT has no resolution
}

#[test]
fn table2_lists_four_platforms() {
    let t = table2();
    assert_eq!(t.len(), 4);
    assert!(t.rows()[1][0].contains("Pixel 3"));
    assert!(t.render_text().contains("Hexagon 685"));
}

#[test]
fn fig7_phases_in_order_with_dsp_dominant() {
    let t = fig7();
    assert_eq!(t.len(), 6);
    let rows = t.rows();
    assert_eq!(rows[0][0], "ioctl-entry");
    assert_eq!(rows[5][0], "ioctl-return");
    // The dsp-execute → completion-signal delta dominates the call.
    let exec_delta: f64 = rows[4][2].parse().unwrap();
    let entry_delta: f64 = rows[1][2].parse().unwrap();
    assert!(exec_delta > entry_delta);
}
