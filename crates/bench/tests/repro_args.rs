//! `repro` reads one flag, `--scale`, and refuses anything else before an
//! experiment runs: exit 2, a message, and no `results/` directory.

use std::process::Command;

#[test]
fn bad_scales_and_unknown_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("mrinv-repro-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad_scale = "repro: --scale must divide every suite order and the paper's nb: \
                     one of [1, 2, 4, 8, 16, 32, 64, 128]\n";
    let cases: [(&[&str], &str); 6] = [
        (&["table3", "--scale", "0"], bad_scale),
        (&["table3", "--scale", "3"], bad_scale),
        (&["table3", "--scale", "256"], bad_scale),
        (&["table3", "--scale"], bad_scale),
        (
            &["fig8", "--nodes", "4,16"],
            "repro: unknown argument \"--nodes\"\n",
        ),
        (
            &["sec74", "--no-scalapack"],
            "repro: unknown argument \"--no-scalapack\"\n",
        ),
    ];
    for (args, message) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&run.stderr), message, "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
        assert!(!dir.join("results").exists(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
