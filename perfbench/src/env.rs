//! The host record every result carries: cores, CPU and ISA, the compiler
//! flags in effect, the toolchain, and the source revision.

use serde_json::Value;
use std::path::Path;
use std::process::{Command, Stdio};

/// ISA extensions that change what the DP kernels compile to.
const ISA_FLAGS: [&str; 12] = [
    "sse4_2",
    "avx",
    "avx2",
    "fma",
    "bmi2",
    "avx512f",
    "avx512dq",
    "avx512bw",
    "avx512vl",
    "avx512_vnni",
    "avx512_bf16",
    "amx_tile",
];

fn text(value: impl Into<String>) -> Value {
    Value::String(value.into())
}

fn optional(value: Option<String>) -> Value {
    value.map_or(Value::Null, Value::String)
}

/// Runs a command in the current directory and returns its trimmed stdout.
fn capture(program: &str, args: &[&str]) -> Option<String> {
    let mut command = Command::new(program);
    command
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    // Keep git from walking up out of the checkout into an unrelated repo.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let output = command.output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The `target-cpu` set by the repository's `.cargo/config.toml`, if any.
fn config_target_cpu() -> Option<String> {
    let config = std::fs::read_to_string(".cargo/config.toml").ok()?;
    config
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .find_map(|line| {
            let at = line.find("target-cpu=")? + "target-cpu=".len();
            let rest = &line[at..];
            let end = rest.find(['"', '\'', ' ', ',']).unwrap_or(rest.len());
            Some(rest[..end].to_string())
        })
}

/// FNV-1a over every source file the build reads, so a result can be tied
/// to its source even where the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    for file in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo/config.toml",
        "perfbench/Cargo.toml",
    ] {
        files.push(file.into());
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        for byte in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Collects the host record as a JSON object.
pub fn collect() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo.lines().find_map(|line| {
            let (name, value) = line.split_once(':')?;
            (name.trim() == key).then(|| value.trim().to_string())
        })
    };
    let flags = field("flags").unwrap_or_default();
    let present: Vec<Value> = ISA_FLAGS
        .iter()
        .filter(|flag| flags.split_whitespace().any(|f| f == **flag))
        .map(|flag| text(*flag))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_sha = capture("git", &["rev-parse", "HEAD"]);
    let git_dirty = git_sha.as_ref().and_then(|_| {
        capture("git", &["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty())
    });
    Value::Object(vec![
        (
            "nproc".into(),
            Value::Number(serde_json::Number::U(nproc as u64)),
        ),
        ("cpu_model".into(), optional(field("model name"))),
        ("isa".into(), Value::Array(present)),
        (
            "rustflags".into(),
            optional(std::env::var("RUSTFLAGS").ok()),
        ),
        ("config_target_cpu".into(), optional(config_target_cpu())),
        ("rustc".into(), optional(capture("rustc", &["-V"]))),
        ("git_sha".into(), optional(git_sha)),
        (
            "git_dirty".into(),
            git_dirty.map_or(Value::Null, Value::Bool),
        ),
        ("source_fnv64".into(), text(source_digest())),
    ])
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
