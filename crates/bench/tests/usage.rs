//! The command lines of `ablate` and `figures`: an unknown section name or
//! experiment id, or a `--scale` that is not a finite factor above zero,
//! exits 2 with the usage text, before any scenario is simulated.

use std::process::Command;

#[test]
fn bad_names_and_scales_exit_2_with_the_usage() {
    let scale = |f| vec!["--scale", f];
    let ablate = ["0", "-1", "NaN", "inf", "abc"]
        .map(scale)
        .into_iter()
        .chain([vec!["bogus"]]);
    let figures = ["0", "-1", "NaN", "inf"]
        .map(scale)
        .into_iter()
        .chain([vec!["--tiny", "bogus"], vec!["--tiny", "f6", "f99"]]);
    let cases = ablate
        .map(|args| ("ablate", env!("CARGO_BIN_EXE_ablate"), args))
        .chain(figures.map(|args| ("figures", env!("CARGO_BIN_EXE_figures"), args)));
    for (name, bin, args) in cases {
        let out = Command::new(bin).args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with(&format!("usage: {name}")),
            "{name} {args:?}: {out:?}"
        );
        assert!(out.stdout.is_empty(), "{name} {args:?}: {out:?}");
        // Nothing was simulated: `figures` prints its `corpus:` line only
        // once the corpus exists.
        assert!(
            !String::from_utf8_lossy(&out.stderr).contains("corpus:"),
            "{name} {args:?}: {out:?}"
        );
    }
}
