//! Bad arguments end the `ftagg-cli` process with a one-line error and a
//! nonzero exit, never a panic.

use std::process::Command;

#[test]
fn bad_sizes_and_budgets_exit_nonzero_without_panicking() {
    let cases: &[&[&str]] = &[
        &["run", "--topology", "grid:0x0"],
        &["run", "--topology", "grid:3x0"],
        &["run", "--topology", "path:0"],
        &["run", "--topology", "cycle:2"],
        &["run", "--topology", "star:0"],
        &["run", "--topology", "complete:0"],
        &["run", "--topology", "torus:2x5"],
        &["run", "--topology", "binary-tree:0"],
        &["run", "--topology", "caterpillar:0x2"],
        &["run", "--topology", "broom:0x3"],
        &["run", "--topology", "lollipop:0x3"],
        &["run", "--topology", "hypercube:0"],
        &["run", "--topology", "hypercube:21"],
        &["run", "--topology", "wheel:3"],
        &["run", "--topology", "barbell:1x2"],
        &["run", "--topology", "bipartite:0x3"],
        &["run", "--topology", "random-tree:0"],
        &["run", "--topology", "gnp:0x5"],
        &["run", "--topology", "gnp:10x101"],
        &["run", "--topology", "grid:3x3", "--b", "3"],
    ];
    for argv in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ftagg-cli"))
            .args(*argv)
            .output()
            .expect("ftagg-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?} exited 0");
        assert!(!stderr.contains("panicked"), "{argv:?} panicked: {stderr}");
        assert!(stderr.starts_with("error: "), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
    }
}
