//! The `campaign` binary's `--out` file in driver mode: a spec the driver
//! refuses leaves the previous report byte for byte, and a valid campaign
//! that streams nothing still gets its (empty) file.

use ltds_bench::workloads;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltds-campaign-out-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign(args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign")).args(args).output().unwrap()
}

#[test]
fn a_refused_spec_leaves_the_previous_report_in_place() {
    let dir = scratch_dir("refused");
    let mut repeated = workloads::demo_campaign();
    let twin = repeated.scenarios[0].clone();
    repeated.scenarios.push(twin);
    let mut no_trials = workloads::demo_campaign();
    no_trials.sweeps[0].trials = 0;

    let out = dir.join("report.jsonl");
    let previous = b"{\"previous\":\"report\"}\n";
    for (name, spec) in [("repeated", repeated), ("no_trials", no_trials)] {
        let spec_path = dir.join(format!("{name}.json"));
        std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
        std::fs::write(&out, previous).unwrap();
        let run = campaign(&[
            "--spec".as_ref(),
            spec_path.as_os_str(),
            "--out".as_ref(),
            out.as_os_str(),
        ]);
        assert_eq!(run.status.code(), Some(1), "{name}: {}", String::from_utf8_lossy(&run.stderr));
        assert!(String::from_utf8_lossy(&run.stderr).contains("campaign failed"), "{name}");
        assert_eq!(std::fs::read(&out).unwrap(), previous, "{name}: --out was touched");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_campaign_that_streams_nothing_still_writes_its_file() {
    let dir = scratch_dir("empty");
    let out = dir.join("report.jsonl");
    let run = campaign(&["--out".as_ref(), out.as_os_str(), "--max-units".as_ref(), "0".as_ref()]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert_eq!(std::fs::read(&out).unwrap(), b"");
    std::fs::remove_dir_all(&dir).unwrap();
}
