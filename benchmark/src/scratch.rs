//! Where the benchmark writes: a `benchmark/` directory inside the cargo
//! target directory the binary was built into. That is inside the checkout
//! (the driver points `CARGO_TARGET_DIR` there), ignored by git, and needs
//! no path from the caller.

use std::path::{Path, PathBuf};

/// `<target dir>/benchmark`, created on first use. Results and traces are
/// kept here across runs.
pub fn root() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    // <target>/{release,debug}/benchmark or <target>/debug/deps/benchmark-<hash>
    let target = exe
        .ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|name| name == "release" || name == "debug")
        })
        .and_then(Path::parent)
        .or_else(|| exe.parent())
        .expect("an executable lives in a directory")
        .to_path_buf();
    let root = target.join("benchmark");
    std::fs::create_dir_all(&root).expect("create the benchmark scratch directory");
    root
}

/// A directory for one process's index files and logs, removed on drop.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(label: &str) -> RunDir {
        let dir = root().join(format!("run-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        RunDir(dir)
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a run sub-directory");
        dir
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
