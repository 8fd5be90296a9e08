//! The verification harness, driven through the `matchkit` facade: the
//! smoke corpus must come up green end to end, and the report must
//! carry all three pillars.

use matchkit::verify::{self, CorpusKind, Pillar, VerifyOptions};

fn tmp_fixture_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "matchkit-verify-harness-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    dir
}

#[test]
fn smoke_corpus_is_green_across_all_three_pillars() {
    let dir = tmp_fixture_dir("green");
    let base = VerifyOptions {
        corpus: CorpusKind::Smoke,
        fixtures_dir: Some(dir.clone()),
        update_golden: true,
        master_seed: verify::DEFAULT_MASTER_SEED,
    };
    // First pass writes the golden fixtures, second pass checks them.
    let wrote = verify::run_verify(&base);
    assert!(wrote.passed(), "{}", wrote.render());

    let report = verify::run_verify(&VerifyOptions {
        update_golden: false,
        ..base
    });
    assert!(report.passed(), "{}", report.render());

    for pillar in [Pillar::Differential, Pillar::Metamorphic, Pillar::Golden] {
        assert!(
            report.checks.iter().any(|c| c.pillar == pillar),
            "report is missing the {pillar} pillar:\n{}",
            report.render()
        );
    }
    assert!(
        report.checks.len() >= 12,
        "expected the full check battery, got {}",
        report.checks.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_fixture_is_caught_and_named() {
    let dir = tmp_fixture_dir("tamper");
    let opts = VerifyOptions {
        corpus: CorpusKind::Smoke,
        fixtures_dir: Some(dir.clone()),
        update_golden: true,
        master_seed: verify::DEFAULT_MASTER_SEED,
    };
    assert!(verify::run_verify(&opts).passed());

    // Flip the final cost of one committed trajectory.
    let victim = dir.join("ce-batched-n8.trace");
    let text = std::fs::read_to_string(&victim).expect("read fixture");
    let tampered: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with("final ") {
                "final 0000000000000000 0".to_string()
            } else {
                l.to_string()
            }
        })
        .collect();
    std::fs::write(&victim, tampered.join("\n") + "\n").expect("write tampered fixture");

    let report = verify::run_verify(&VerifyOptions {
        update_golden: false,
        ..opts
    });
    assert!(!report.passed(), "tampered fixture must fail");
    let rendered = report.render();
    assert!(
        rendered.contains("ce-batched-n8"),
        "failure must name the fixture:\n{rendered}"
    );
    assert!(
        rendered.contains("--update-golden"),
        "failure must explain how to regenerate:\n{rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
