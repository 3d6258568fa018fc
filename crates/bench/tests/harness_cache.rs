//! `bench::harness_cache` against a real `IMPLANT_CACHE_DIR`. The cache
//! reads the environment, so this is its own test binary and its tests
//! serialise on one lock.

use runtime::{cache_key, ParamPoint, ResultCache};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("harness-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn cache_at(path: &Path) -> ResultCache<f64> {
    std::env::set_var("IMPLANT_CACHE_DIR", path);
    let cache = bench::harness_cache();
    std::env::remove_var("IMPLANT_CACHE_DIR");
    cache
}

#[test]
fn a_second_cache_on_the_same_directory_hits() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("reuse");
    let p = ParamPoint::new().with("distance_mm", 6.0).with("medium", "air");
    cache_at(&dir).put("sweep", &p, &15.0e-3);
    assert!(dir.join("manifests").join("harness.json").is_file());
    let second = cache_at(&dir);
    assert_eq!(second.get("sweep", &p), Some(15.0e-3));
    assert_eq!(second.stats(), (1, 0));

    // A torn object reads as a miss; the recomputed value is rewritten.
    let object = dir.join("objects").join(format!("{:016x}.json", cache_key("sweep", &p)));
    std::fs::write(&object, "{\"namespace\":\"sweep\",\"val").unwrap();
    let third = cache_at(&dir);
    assert_eq!(third.get("sweep", &p), None);
    third.put("sweep", &p, &15.0e-3);
    assert_eq!(cache_at(&dir).get("sweep", &p), Some(15.0e-3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_plain_file_path_falls_back_to_memory() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let file = scratch("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let p = ParamPoint::new().with("d", 1.0);
    let cache = cache_at(&file);
    cache.put("sweep", &p, &2.0);
    assert_eq!(cache.get("sweep", &p), Some(2.0), "memory still caches");
    assert_eq!(cache_at(&file).get("sweep", &p), None, "nothing persisted");
    let _ = std::fs::remove_file(&file);
}
