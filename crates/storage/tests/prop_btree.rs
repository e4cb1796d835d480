//! Randomized tests: the B+tree must agree with a sorted vector model.
//! Cases come from a seeded [`polyframe_observe::Rng`] so runs are
//! deterministic and the suite needs no external property-testing
//! dependency (offline builds).

use polyframe_datamodel::{cmp_total, Value};
use polyframe_observe::Rng;
use polyframe_storage::{BPlusTree, Direction, KeyBound, ScanRange};

const CASES: usize = 48;

fn model_sort(entries: &mut [(i64, u64)]) {
    entries.sort_by(|a, b| cmp_total(&Value::Int(a.0), &Value::Int(b.0)).then(a.1.cmp(&b.1)));
}

fn gen_keys(rng: &mut Rng, max_len: usize) -> Vec<i64> {
    let len = rng.gen_range_usize(max_len);
    (0..len).map(|_| rng.gen_range_i64(-50, 50)).collect()
}

#[test]
fn forward_scan_matches_sorted_model() {
    let mut rng = Rng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let keys = gen_keys(&mut rng, 300);
        let mut tree = BPlusTree::new();
        let mut model: Vec<(i64, u64)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(Value::Int(*k), i as u64);
            model.push((*k, i as u64));
        }
        model_sort(&mut model);
        let got: Vec<(i64, u64)> = tree
            .scan(&ScanRange::all(), Direction::Forward)
            .map(|(k, p)| (k.as_i64().unwrap(), p))
            .collect();
        assert_eq!(got, model);
    }
}

#[test]
fn backward_scan_is_reverse_of_forward() {
    let mut rng = Rng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let keys = gen_keys(&mut rng, 300);
        let mut tree = BPlusTree::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(Value::Int(*k), i as u64);
        }
        let fwd: Vec<(i64, u64)> = tree
            .scan(&ScanRange::all(), Direction::Forward)
            .map(|(k, p)| (k.as_i64().unwrap(), p))
            .collect();
        let mut bwd: Vec<(i64, u64)> = tree
            .scan(&ScanRange::all(), Direction::Backward)
            .map(|(k, p)| (k.as_i64().unwrap(), p))
            .collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }
}

#[test]
fn range_scans_match_filtered_model() {
    let mut rng = Rng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let keys = gen_keys(&mut rng, 300);
        let lo = rng.gen_range_i64(-60, 60);
        let width = rng.gen_range_i64(0, 40);
        let lo_incl = rng.gen_bool();
        let hi_incl = rng.gen_bool();
        let hi = lo + width;
        let mut tree = BPlusTree::new();
        let mut model: Vec<(i64, u64)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(Value::Int(*k), i as u64);
            model.push((*k, i as u64));
        }
        model_sort(&mut model);
        let in_range = |k: i64| {
            let lo_ok = if lo_incl { k >= lo } else { k > lo };
            let hi_ok = if hi_incl { k <= hi } else { k < hi };
            lo_ok && hi_ok
        };
        let expected: Vec<(i64, u64)> = model.into_iter().filter(|(k, _)| in_range(*k)).collect();
        let range = ScanRange {
            lo: if lo_incl {
                KeyBound::Included(Value::Int(lo))
            } else {
                KeyBound::Excluded(Value::Int(lo))
            },
            hi: if hi_incl {
                KeyBound::Included(Value::Int(hi))
            } else {
                KeyBound::Excluded(Value::Int(hi))
            },
        };
        let got: Vec<(i64, u64)> = tree
            .scan(&range, Direction::Forward)
            .map(|(k, p)| (k.as_i64().unwrap(), p))
            .collect();
        assert_eq!(&got, &expected);
        let mut bwd: Vec<(i64, u64)> = tree
            .scan(&range, Direction::Backward)
            .map(|(k, p)| (k.as_i64().unwrap(), p))
            .collect();
        bwd.reverse();
        assert_eq!(bwd, expected);
    }
}

#[test]
fn inserts_then_removes_leave_survivors() {
    let mut rng = Rng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        let len = 1 + rng.gen_range_usize(199);
        let keys: Vec<i64> = (0..len).map(|_| rng.gen_range_i64(0, 40)).collect();
        let remove_mask: Vec<bool> = (0..200).map(|_| rng.gen_bool()).collect();
        let mut tree = BPlusTree::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(Value::Int(*k), i as u64);
        }
        let mut survivors: Vec<(i64, u64)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            if remove_mask[i % remove_mask.len()] {
                assert!(tree.remove(&Value::Int(*k), i as u64));
            } else {
                survivors.push((*k, i as u64));
            }
        }
        model_sort(&mut survivors);
        let got: Vec<(i64, u64)> = tree
            .scan(&ScanRange::all(), Direction::Forward)
            .map(|(k, p)| (k.as_i64().unwrap(), p))
            .collect();
        assert_eq!(got, survivors);
        assert_eq!(
            tree.first().map(|(k, p)| (k.as_i64().unwrap(), p)),
            tree.scan(&ScanRange::all(), Direction::Forward)
                .next()
                .map(|(k, p)| (k.as_i64().unwrap(), p))
        );
    }
}

/// The scan of `tree` in both directions, checked against `model`
/// (already sorted), plus `first`/`last`/`len`.
fn assert_matches_model(tree: &BPlusTree, model: &[(i64, u64)], what: &str) {
    let fwd: Vec<(i64, u64)> = tree
        .scan(&ScanRange::all(), Direction::Forward)
        .map(|(k, p)| (k.as_i64().unwrap(), p))
        .collect();
    assert_eq!(fwd, model, "{what}: forward scan");
    let mut bwd: Vec<(i64, u64)> = tree
        .scan(&ScanRange::all(), Direction::Backward)
        .map(|(k, p)| (k.as_i64().unwrap(), p))
        .collect();
    bwd.reverse();
    assert_eq!(bwd, model, "{what}: backward scan");
    assert_eq!(tree.len(), model.len(), "{what}: len");
    let first = tree.first().map(|(k, p)| (k.as_i64().unwrap(), p));
    let last = tree.last().map(|(k, p)| (k.as_i64().unwrap(), p));
    assert_eq!(first, model.first().copied(), "{what}: first");
    assert_eq!(last, model.last().copied(), "{what}: last");
}

#[test]
fn retained_clones_keep_their_own_contents() {
    let mut rng = Rng::seed_from_u64(0xB5);
    for case in 0..CASES {
        let mut tree = BPlusTree::new();
        let mut model: Vec<(i64, u64)> = Vec::new();
        let mut retained: Vec<(BPlusTree, Vec<(i64, u64)>)> = Vec::new();
        let steps = 200 + rng.gen_range_usize(1200);
        for step in 0..steps {
            if !model.is_empty() && rng.gen_range_usize(3) == 0 {
                let victim = model.remove(rng.gen_range_usize(model.len()));
                assert!(tree.remove(&Value::Int(victim.0), victim.1));
            } else {
                let key = rng.gen_range_i64(-200, 200);
                let pos = model.partition_point(|e| {
                    cmp_total(&Value::Int(e.0), &Value::Int(key))
                        .then(e.1.cmp(&(step as u64)))
                        .is_lt()
                });
                model.insert(pos, (key, step as u64));
                tree.insert(Value::Int(key), step as u64);
            }
            if rng.gen_range_usize(40) == 0 {
                retained.push((tree.clone(), model.clone()));
            }
        }
        for (i, (clone, clone_model)) in retained.iter().enumerate() {
            assert_matches_model(clone, clone_model, &format!("case {case}, clone {i}"));
        }
        assert_matches_model(&tree, &model, &format!("case {case}, original"));
    }
}

#[test]
fn clones_mutated_independently_do_not_interfere() {
    let mut rng = Rng::seed_from_u64(0xB6);
    for case in 0..CASES {
        let keys = gen_keys(&mut rng, 600);
        let mut a = BPlusTree::new();
        let mut model_a: Vec<(i64, u64)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            a.insert(Value::Int(*k), i as u64);
            model_a.push((*k, i as u64));
        }
        let mut b = a.clone();
        let mut model_b = model_a.clone();
        // Both sides now write: `a` removes every other entry it holds,
        // `b` inserts fresh keys.
        let removed: Vec<(i64, u64)> = model_a.iter().copied().step_by(2).collect();
        for (k, p) in &removed {
            assert!(a.remove(&Value::Int(*k), *p));
        }
        model_a.retain(|e| !removed.contains(e));
        for j in 0..rng.gen_range_usize(300) {
            let k = rng.gen_range_i64(-80, 80);
            let p = 10_000 + j as u64;
            b.insert(Value::Int(k), p);
            model_b.push((k, p));
        }
        model_sort(&mut model_a);
        model_sort(&mut model_b);
        assert_matches_model(&a, &model_a, &format!("case {case}, a"));
        assert_matches_model(&b, &model_b, &format!("case {case}, b"));
    }
}
