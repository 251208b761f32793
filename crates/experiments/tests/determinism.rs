//! The parallel harness must be invisible in the results: the same
//! experiments, seed, and horizon must produce byte-identical CSVs
//! whatever `--jobs` is set to.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Reads every CSV in `dir` into a name → bytes map.
fn read_csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).expect("csv readable"));
        }
    }
    out
}

fn run(jobs: usize, out_dir: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        // fig9, fig12a and fig12e exercise the sharded batch sweeps (fig12e
        // also its first-battery-size-that-works search), fig11a and fig14b
        // are cheap analytic figures mixed in so the fan-out across
        // experiments is exercised too.
        .args(["fig9", "fig11a", "fig12a", "fig12e", "fig14b"])
        .args(["--days", "1", "--warmup-days", "0", "--seed", "42"])
        .arg("--out")
        .arg(out_dir)
        .args(["--jobs", &jobs.to_string()])
        .status()
        .expect("experiments binary runs");
    assert!(status.success(), "experiments --jobs {jobs} failed");
}

#[test]
fn csvs_are_byte_identical_across_jobs() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    let serial_dir = base.join("jobs1");
    let parallel_dir = base.join("jobs4");
    let _ = std::fs::remove_dir_all(&base);

    run(1, &serial_dir);
    run(4, &parallel_dir);

    let serial = read_csvs(&serial_dir);
    let parallel = read_csvs(&parallel_dir);
    assert!(!serial.is_empty(), "serial run produced no CSVs");
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "the two runs wrote different file sets"
    );
    for (name, bytes) in &serial {
        assert_eq!(
            bytes, &parallel[name],
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }
}
