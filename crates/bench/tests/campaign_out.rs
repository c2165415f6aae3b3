//! The `campaign` binary's `--out` file in driver mode: a spec the driver
//! refuses leaves the previous report byte for byte, and a valid campaign
//! that streams nothing still gets its (empty) file. An invocation the
//! binary refuses before it runs (flags that do not fit the mode, fleet
//! report names that collide) exits 2 and creates nothing.

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

#[test]
fn flags_outside_their_mode_are_refused_before_anything_opens() {
    let dir = scratch_dir("flags");
    let out = dir.join("report.jsonl");
    // Port 9 (discard) stands for any address: the refusal comes first.
    let addr = "127.0.0.1:9";
    let cases: [(&[&str], &str); 5] = [
        (&["--threads", "2", "--submit", addr], "--threads does not apply to --submit"),
        (
            &["--fleet-reports", "reports", "--serve-tcp", addr],
            "--fleet-reports does not apply to --serve-tcp",
        ),
        (
            &["--expect-hits", "1", "--worker-tcp", addr],
            "--expect-hits does not apply to --worker-tcp",
        ),
        (&["--worker-id", "w0"], "--worker-id does not apply to the in-process driver"),
        (&["--serve-tcp", addr, "--submit", addr], "mutually exclusive"),
    ];
    for (flags, message) in cases {
        let mut args: Vec<&std::ffi::OsStr> = flags.iter().map(|f| f.as_ref()).collect();
        args.extend(["--out".as_ref(), out.as_os_str()]);
        let run = campaign(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
        assert!(!out.exists(), "{flags:?}: --out was created");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scenario_names_that_share_a_fleet_report_file_are_refused() {
    let dir = scratch_dir("collide");
    let mut spec = workloads::demo_campaign();
    spec.sweeps.clear();
    spec.scenarios[0].fleet = workloads::fleet_year(100);
    let mut twin = spec.scenarios[0].clone();
    spec.scenarios[0].name = "x y".to_string();
    twin.name = "x_y".to_string();
    spec.scenarios.push(twin);
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
    let (out, reports) = (dir.join("report.jsonl"), dir.join("reports"));
    for mode in [&[][..], &["--submit", "127.0.0.1:9"]] {
        let mut args: Vec<&std::ffi::OsStr> = mode.iter().map(|f| f.as_ref()).collect();
        args.extend([
            "--spec".as_ref(),
            spec_path.as_os_str(),
            "--out".as_ref(),
            out.as_os_str(),
            "--fleet-reports".as_ref(),
            reports.as_os_str(),
        ]);
        let run = campaign(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{mode:?}: {stderr}");
        assert!(stderr.contains("`x y` and `x_y`") && stderr.contains("x_y.json"), "{stderr}");
        assert!(!out.exists() && !reports.exists(), "{mode:?}: the refused run wrote files");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
