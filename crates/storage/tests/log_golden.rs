//! Golden bytes for the `LogEngine` file format: one short write-through
//! script, `u64` states, and the exact file it leaves behind. If this
//! test fails, the on-disk format changed — every log a replica ever
//! wrote would now replay differently. Change the committed hex only
//! when that is the intent, and keep `doc/log_format.md` in step: its
//! hand-decoded dump is this file, byte for byte, and the second test
//! here reads it.

use storage::{LogConfig, LogEngine, StorageEngine};

/// The file `script` leaves: put `key` = 1, overwrite it with 300,
/// remove it, reserve dots up to 4096 in epoch 1, clear — one record
/// each, every one handed to the writer as its own group when its call
/// returns, and synced before the next call goes on.
const GOLDEN: &str = concat!(
    "0601036b6579014f59d80c017f2cd807",
    "01036b6579ac027e74dad1c891df2905",
    "02036b657919a14bc0347aec99040401",
    "802026589d3e5e2bdec2010392b90186",
    "4cbe63af",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs the script through a fresh write-through log and returns the
/// file's bytes.
fn script() -> Vec<u8> {
    let dir = storage::scratch_dir("golden");
    let path = dir.join("replica.log");
    let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
    log.apply(b"key", &mut || 0, &mut |s| *s = 1);
    log.apply(b"key", &mut || 0, &mut |s| *s = 300);
    log.remove(b"key");
    log.store_reservation(1, 4096);
    log.clear();
    drop(log);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(dir).ok();
    bytes
}

#[test]
fn write_through_script_leaves_the_committed_bytes() {
    let bytes = script();
    assert_eq!(hex(&bytes), GOLDEN, "the log file format changed");
    // ... and the file means what the document says it means
    let dir = storage::scratch_dir("golden-replay");
    let path = dir.join("replica.log");
    std::fs::write(&path, &bytes).unwrap();
    let back: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
    assert!(back.is_empty());
    assert_eq!(back.load_reservation(), Some((1, 4096)));
    assert_eq!(back.stats().replayed_records, 5);
    std::fs::remove_dir_all(dir).ok();
}

/// The hex pairs of the dump under the document's "I don't want to use
/// your program" heading: on every line of its first `text` block, the
/// two-digit lowercase hex tokens before the first other token.
fn document_dump() -> String {
    let doc = include_str!("../../../doc/log_format.md");
    let section = doc
        .split("### \"I don't want to use your program\"")
        .nth(1)
        .expect("the document has the hand-decoding section");
    let block = section
        .split("```text\n")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("the section has a text block");
    let is_pair =
        |t: &&str| t.len() == 2 && t.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    block
        .lines()
        .flat_map(|line| line.split_whitespace().take_while(is_pair))
        .collect()
}

/// `doc/log_format.md` stays a description of the format only while its
/// hand-decoded file is the one the engine writes.
#[test]
fn format_document_decodes_the_golden_file() {
    assert_eq!(document_dump(), GOLDEN);
}
