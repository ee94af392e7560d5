//! The `webdis` binary at its edge: hostile query text is an error
//! message and exit status 1, never an abort; no arguments at all is
//! the usage text, naming every option the binary accepts.

use std::path::PathBuf;
use std::process::Command;

fn webdis(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_webdis"))
        .args(args)
        .output()
        .expect("webdis runs")
}

#[test]
fn deeply_nested_query_text_is_refused_not_a_stack_overflow() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-deep-nesting");
    let _ = std::fs::remove_dir_all(&dir);
    let web = dir.join("web");
    let gen = webdis(&["gen", "--out", web.to_str().unwrap(), "--sites", "2"]);
    assert!(gen.status.success(), "{gen:?}");

    let start = r#""http://site0.test/doc0.html""#;
    let deep_not = format!(
        r#"select d.url from document d such that {start} L* d where {}d.title contains "x""#,
        "not ".repeat(200_000)
    );
    let deep_pre = format!(
        "select d.url from document d such that {start} {}L{} d",
        "(".repeat(200_000),
        ")".repeat(200_000)
    );
    for (name, disql) in [("not", deep_not), ("pre", deep_pre)] {
        let file = dir.join(format!("{name}.disql"));
        std::fs::write(&file, disql).unwrap();
        let arg = format!("@{}", file.display());
        let out = webdis(&["query", "--web", web.to_str().unwrap(), &arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("webdis: "), "{name}: {stderr}");
        assert!(stderr.contains("nested deeper than 64"), "{name}: {stderr}");
    }

    // The same web still answers a query nested as deep as is allowed.
    let ok = format!(
        r#"select d.url from document d such that {start} L* d where {}d.title contains "x""#,
        "not ".repeat(64)
    );
    let out = webdis(&["query", "--web", web.to_str().unwrap(), &ok]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn usage_names_every_query_option() {
    let out = webdis(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let usage = String::from_utf8_lossy(&out.stderr);
    let options = [
        "--web",
        "--data-shipping",
        "--tcp",
        "--hybrid",
        "--wan",
        "--trace",
        "--explain",
        "--html",
    ];
    for option in options {
        assert!(usage.contains(option), "usage omits {option}: {usage}");
    }
}
