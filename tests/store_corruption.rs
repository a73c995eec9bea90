//! Corruption battery: a snapshot mangled any way — truncated at every
//! prefix length, any single bit flipped, wrong magic, a future schema
//! version — must load as a typed [`SkqError`], never a panic and never
//! a structurally broken index. When `debug-invariants` is on, every
//! *successful* load is additionally deep-validated.

use structured_keyword_search::core::dynamic::ObjectTable;
use structured_keyword_search::core::persist::kind;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::store::Persist;

fn dataset() -> Dataset {
    Dataset::from_parts(
        (0..96)
            .map(|i| {
                let x = f64::from(i % 12);
                let y = f64::from(i / 12);
                (Point::new2(x, y), vec![0u32, 1, 2 + (i % 3)])
            })
            .collect(),
    )
}

fn snapshot() -> Vec<u8> {
    OrpKwSuite::try_build(&dataset(), 3)
        .unwrap()
        .to_bytes()
        .expect("encoding a valid suite")
}

/// A durable checkpoint: the object table of the same objects, with
/// every fifth one deleted.
fn checkpoint() -> Vec<u8> {
    let d = dataset();
    let mut table = ObjectTable::try_new(2).unwrap();
    for i in 0..d.len() {
        let h = table
            .try_insert(*d.point(i), d.doc(i).keywords().to_vec())
            .unwrap();
        if i % 5 == 0 {
            table.delete(h.id());
        }
    }
    table.to_bytes().expect("encoding a valid table")
}

/// Decodes snapshot bytes and exercises the result.
type Loader = fn(&[u8]) -> Result<(), SkqError>;

/// The batteries' inputs: each snapshot with the loader that reads it.
fn inputs() -> [(&'static str, Vec<u8>, Loader); 2] {
    [
        ("suite", snapshot(), |bytes| {
            // A mangled snapshot may still decode if the damage hit
            // dead bytes; the result must then behave like a real
            // index (try_load already deep-validated it under
            // debug-invariants). Exercise a query to be sure.
            let suite = OrpKwSuite::try_load(bytes)?;
            let _ = suite.query(&Rect::full(2), &[0, 1]).unwrap();
            Ok(())
        }),
        ("checkpoint", checkpoint(), |bytes| {
            let table = ObjectTable::try_from_bytes(bytes)?;
            let _ = table.live_dataset();
            Ok(())
        }),
    ]
}

/// Loads possibly-mangled bytes; panics (failing the test) only if the
/// decoder itself panics or a load succeeds with a broken structure.
fn try_load_mangled(load: Loader, bytes: &[u8], what: &str) {
    match load(bytes) {
        Ok(()) | Err(SkqError::Corrupted { .. }) | Err(SkqError::Store { .. }) => {}
        Err(other) => panic!("{what}: unexpected error kind: {other}"),
    }
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    for (name, bytes, load) in inputs() {
        // Every prefix below the file header, then a spread of longer
        // ones (all strictly shorter than the full file): each must
        // fail with a typed error — short data can never decode into
        // something valid.
        let mut cuts: Vec<usize> = (0..32.min(bytes.len())).collect();
        let step = (bytes.len() / 61).max(1);
        cuts.extend((32..bytes.len()).step_by(step));
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            let err = load(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("{name} truncated at {cut}: load succeeded"));
            assert!(
                matches!(err, SkqError::Corrupted { .. } | SkqError::Store { .. }),
                "{name} truncated at {cut}: {err}"
            );
        }
    }
}

#[test]
fn any_flipped_bit_never_panics() {
    for (name, bytes, load) in inputs() {
        // Flip one bit per stride position across the whole file
        // (every byte would take minutes in debug builds; a prime
        // stride hits all sections — headers, payloads, checksums).
        let stride = 97;
        for pos in (0..bytes.len()).step_by(stride) {
            for bit in [0u8, 3, 7] {
                let mut mangled = bytes.clone();
                mangled[pos] ^= 1 << bit;
                try_load_mangled(load, &mangled, &format!("{name}: bit {bit} of byte {pos}"));
            }
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = snapshot();
    bytes[0] = b'X';
    let err = OrpKwSuite::try_load(&bytes).err().expect("must fail");
    assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn future_schema_version_is_rejected_with_versions_named() {
    use structured_keyword_search::store::SCHEMA_VERSION;
    let mut bytes = snapshot();
    // Bump the schema field (bytes 8..10, little-endian) and re-stamp
    // the header checksum so the version check itself is what fires.
    let future = SCHEMA_VERSION + 1;
    bytes[8..10].copy_from_slice(&future.to_le_bytes());
    let digest = fnv64(&bytes[..16]);
    bytes[16..24].copy_from_slice(&digest.to_le_bytes());
    let err = OrpKwSuite::try_load(&bytes).err().expect("must fail");
    assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains(&future.to_string()), "{msg}");
    assert!(msg.contains(&SCHEMA_VERSION.to_string()), "{msg}");
}

#[test]
fn unrelated_bytes_are_rejected() {
    for junk in [
        &b""[..],
        &b"\0"[..],
        &b"not a snapshot at all, definitely long enough to look at"[..],
        &[0xffu8; 64][..],
    ] {
        let err = OrpKwSuite::try_load(junk).err().expect("must fail");
        assert!(
            matches!(err, SkqError::Corrupted { .. } | SkqError::Store { .. }),
            "{err}"
        );
    }
}

#[test]
fn page_swap_is_rejected() {
    // Swapping two whole pages keeps every per-page checksum valid but
    // breaks the section order the decoders expect: the page-index /
    // kind checks must catch it.
    let bytes = snapshot();
    let suite_head_len = 24 + 24 + 1; // file header + first page header + k_max varint
    let mut swapped = Vec::with_capacity(bytes.len());
    swapped.extend_from_slice(&bytes[..24]);
    swapped.extend_from_slice(&bytes[suite_head_len..]);
    swapped.extend_from_slice(&bytes[24..suite_head_len]);
    let err = OrpKwSuite::try_load(&swapped).err().expect("must fail");
    assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
}

/// Byte offset of every page header, in file order.
fn page_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 24;
    while pos + 24 <= bytes.len() {
        offsets.push(pos);
        let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap());
        pos += 24 + len as usize;
    }
    offsets
}

fn page_kind(bytes: &[u8], page: usize) -> u16 {
    u16::from_le_bytes([bytes[page + 4], bytes[page + 5]])
}

/// Rewrites one page's payload through `edit` and re-stamps its
/// checksum, so the decoder's own checks are what must fire.
fn edit_payload(bytes: &mut [u8], page: usize, edit: impl FnOnce(&mut [u8])) {
    let len = u32::from_le_bytes(bytes[page + 8..page + 12].try_into().unwrap()) as usize;
    let payload = page + 24..page + 24 + len;
    edit(&mut bytes[payload.clone()]);
    let digest = fnv64(&bytes[payload]);
    bytes[page + 16..page + 24].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn old_suite_head_version_is_rejected_with_versions_named() {
    let mut bytes = snapshot();
    let head = page_offsets(&bytes)[0];
    assert_eq!(page_kind(&bytes, head), kind::SUITE_HEAD);
    assert_eq!(&bytes[head + 6..head + 8], &2u16.to_le_bytes());
    // The page version is outside the payload checksum: no re-stamp.
    bytes[head + 6..head + 8].copy_from_slice(&1u16.to_le_bytes());
    let err = OrpKwSuite::try_load(&bytes).err().expect("must fail");
    assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("suite"), "{msg}");
    assert!(
        msg.contains("version 1") && msg.contains("expected 2"),
        "{msg}"
    );
}

/// The `k_max = 3` suite's one extra layer (`k = 3`) heads its
/// `TREE_LAYER` section with its `k` and node count.
fn layer_head(bytes: &[u8]) -> usize {
    page_offsets(bytes)
        .into_iter()
        .find(|&p| page_kind(bytes, p) == kind::TREE_LAYER)
        .expect("a k_max = 3 suite has a layer section")
}

#[test]
fn layer_with_a_foreign_k_is_corrupted() {
    let mut bytes = snapshot();
    let head = layer_head(&bytes);
    edit_payload(&mut bytes, head, |p| {
        assert_eq!(p[0], 3, "the layer head starts with k = 3");
        p[0] = 4;
    });
    let err = OrpKwSuite::try_load(&bytes).err().expect("must fail");
    assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
    assert!(err.to_string().contains("layer k = 4"), "{err}");
}

#[test]
fn layer_with_a_foreign_node_count_is_corrupted() {
    let mut bytes = snapshot();
    let head = layer_head(&bytes);
    // Flip the low bit of the node-count varint (one byte after `k`):
    // the varint keeps its length, the count moves by one.
    edit_payload(&mut bytes, head, |p| p[1] ^= 1);
    let err = OrpKwSuite::try_load(&bytes).err().expect("must fail");
    assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
    assert!(err.to_string().contains("nodes, the tree has"), "{err}");
}

// ---------------------------------------------------------------------
// WAL corruption battery (DESIGN §16): a segment mangled any way must
// decode to a clean valid prefix plus a typed `Corrupted` error —
// never a panic, and replay must stop at the first damaged byte.

mod wal_battery {
    use structured_keyword_search::prelude::{Point, SkqError};
    use structured_keyword_search::store::wal::{decode_segment, encode_record, WalOp};

    /// A small multi-record log with both op kinds.
    fn log_bytes() -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for i in 0..6u64 {
            let op = if i % 3 == 2 {
                WalOp::Delete { id: i / 3 }
            } else {
                WalOp::Insert {
                    id: i,
                    point: Point::new2(i as f64, 2.0 * i as f64),
                    keywords: vec![1, 5, 9],
                }
            };
            bytes.extend_from_slice(&encode_record(i + 1, &op));
            boundaries.push(bytes.len());
        }
        (bytes, boundaries)
    }

    #[test]
    fn truncation_at_every_byte_prefix_keeps_whole_records() {
        let (bytes, boundaries) = log_bytes();
        for cut in 0..bytes.len() {
            let scan = decode_segment(&bytes[..cut]);
            // The valid prefix is exactly the whole records that fit.
            let expect_records = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(
                scan.records.len(),
                expect_records,
                "cut at {cut}: wrong record count"
            );
            assert_eq!(scan.valid_len as usize, boundaries[expect_records]);
            if cut == boundaries[expect_records] {
                assert!(scan.error.is_none(), "cut at {cut}: clean boundary");
            } else {
                let err = scan.error.expect("torn tail must report an error");
                assert!(
                    matches!(err, SkqError::Corrupted { .. }),
                    "cut at {cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn any_flipped_bit_in_any_record_is_typed_never_panics() {
        let (bytes, boundaries) = log_bytes();
        for pos in 0..bytes.len() {
            for bit in [0u8, 4, 7] {
                let mut mangled = bytes.clone();
                mangled[pos] ^= 1 << bit;
                let scan = decode_segment(&mangled);
                // Replay stops cleanly: every surviving record is one
                // of the originals from before the damaged byte.
                let record_of_pos = boundaries.iter().filter(|&&b| b <= pos).count() - 1;
                assert!(
                    scan.records.len() <= record_of_pos,
                    "bit {bit} of byte {pos}: a damaged record decoded"
                );
                if let Some(err) = scan.error {
                    assert!(
                        matches!(err, SkqError::Corrupted { .. }),
                        "bit {bit} of byte {pos}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn junk_and_empty_segments_scan_cleanly() {
        assert!(decode_segment(&[]).error.is_none());
        for junk in [&b"\0"[..], &b"SKWRxxxx"[..], &[0xffu8; 40][..]] {
            let scan = decode_segment(junk);
            assert!(scan.records.is_empty());
            let err = scan.error.expect("junk must not scan clean");
            assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
        }
    }
}

/// FNV-1a 64 — mirrors the header and payload digests so the tests can
/// re-stamp a "valid" header or page.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
