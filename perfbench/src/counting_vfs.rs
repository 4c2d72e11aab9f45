//! A [`Vfs`] decorator that forwards every operation to the wrapped
//! filesystem and counts operations, bytes and host time. Files are
//! classified by the serve store's naming scheme.

use r2d3_core::chaos::{Vfs, VfsFile};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The kind of durable file an operation touched, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `unit-N.state.r2d3s`: a unit's mid-run checkpoint.
    UnitState,
    /// `unit-N.shard.r2d3s`: a finished campaign shard's report.
    ShardReport,
    /// `manifest.r2d3s`: the job record.
    Manifest,
    /// `events.jsonl`: the job's durable event log.
    Events,
    /// `report.json`: the job's rendered result.
    Report,
    /// Anything else (directories, probes).
    Other,
}

impl FileClass {
    /// Every class, in report order.
    pub const ALL: [FileClass; 6] = [
        FileClass::UnitState,
        FileClass::ShardReport,
        FileClass::Manifest,
        FileClass::Events,
        FileClass::Report,
        FileClass::Other,
    ];

    /// Metric-name token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FileClass::UnitState => "unit_state",
            FileClass::ShardReport => "shard_report",
            FileClass::Manifest => "manifest",
            FileClass::Events => "events",
            FileClass::Report => "report",
            FileClass::Other => "other",
        }
    }

    /// Classifies a path by its file name; the `.tmp` of an atomic write
    /// counts as the file it replaces.
    #[must_use]
    pub fn of(path: &Path) -> FileClass {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let name = name.strip_suffix(".tmp").unwrap_or(name);
        if name == "manifest.r2d3s" {
            FileClass::Manifest
        } else if name == "events.jsonl" {
            FileClass::Events
        } else if name == "report.json" {
            FileClass::Report
        } else if name.starts_with("unit-") && name.ends_with(".state.r2d3s") {
            FileClass::UnitState
        } else if name.starts_with("unit-") && name.ends_with(".shard.r2d3s") {
            FileClass::ShardReport
        } else {
            FileClass::Other
        }
    }
}

/// Operation counts, bytes and host time since the decorator was made.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IoCounts {
    /// File creations (truncating opens) and append opens.
    pub opens: u64,
    /// `sync_all` calls on files.
    pub file_syncs: u64,
    /// `sync_dir` calls.
    pub dir_syncs: u64,
    /// Renames.
    pub renames: u64,
    /// Whole-file reads.
    pub reads: u64,
    /// Removals.
    pub removes: u64,
    /// Bytes written, per [`FileClass`] (indexed by `class as usize`).
    pub bytes: [u64; 6],
    /// Host time inside the wrapped filesystem, all operations.
    pub busy: Duration,
}

impl IoCounts {
    /// Bytes written to files of `class`.
    #[must_use]
    pub fn bytes_of(&self, class: FileClass) -> u64 {
        self.bytes[class as usize]
    }

    /// Bytes written, all classes.
    #[must_use]
    pub fn bytes_total(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// The counting decorator. Clones share one set of counters.
#[derive(Debug, Clone)]
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counts: Arc<Mutex<IoCounts>>,
}

impl CountingVfs {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        CountingVfs { inner, counts: Arc::new(Mutex::new(IoCounts::default())) }
    }

    /// A copy of the counters.
    ///
    /// # Panics
    ///
    /// If a thread panicked while updating the counters.
    #[must_use]
    pub fn counts(&self) -> IoCounts {
        self.counts.lock().expect("i/o counter lock poisoned").clone()
    }

    fn timed<T>(&self, f: impl FnOnce() -> T, record: impl FnOnce(&mut IoCounts)) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let mut c = self.counts.lock().expect("i/o counter lock poisoned");
        c.busy += elapsed;
        record(&mut c);
        out
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            class: FileClass::of(path),
            counts: Arc::clone(&self.counts),
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    class: FileClass,
    counts: Arc<Mutex<IoCounts>>,
}

impl CountingFile {
    fn record(&self, elapsed: Duration, f: impl FnOnce(&mut IoCounts)) {
        let mut c = self.counts.lock().expect("i/o counter lock poisoned");
        c.busy += elapsed;
        f(&mut c);
    }
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let out = self.inner.write(buf);
        let written = *out.as_ref().unwrap_or(&0) as u64;
        let class = self.class as usize;
        self.record(start.elapsed(), |c| c.bytes[class] += written);
        out
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.flush();
        self.record(start.elapsed(), |_| {});
        out
    }
}

impl VfsFile for CountingFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.sync_all();
        self.record(start.elapsed(), |c| c.file_syncs += 1);
        out
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self.timed(|| self.inner.create(path), |c| c.opens += 1)?;
        Ok(self.wrap(path, file))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self.timed(|| self.inner.open_append(path), |c| c.opens += 1)?;
        Ok(self.wrap(path, file))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(|| self.inner.read(path), |c| c.reads += 1)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| self.inner.rename(from, to), |c| c.renames += 1)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(|| self.inner.remove_file(path), |c| c.removes += 1)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed(|| self.inner.create_dir_all(path), |_| {})
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.timed(|| self.inner.sync_dir(path), |c| c.dir_syncs += 1)
    }

    fn exists(&self, path: &Path) -> bool {
        self.timed(|| self.inner.exists(path), |_| {})
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.timed(|| self.inner.is_dir(path), |_| {})
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.timed(|| self.inner.read_dir(path), |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_core::chaos::MemFs;

    #[test]
    fn classifies_serve_store_names() {
        let cases = [
            ("s/job-00000001/manifest.r2d3s", FileClass::Manifest),
            ("s/job-00000001/manifest.r2d3s.tmp", FileClass::Manifest),
            ("s/job-00000001/unit-0.state.r2d3s.tmp", FileClass::UnitState),
            ("s/job-00000001/unit-12.shard.r2d3s", FileClass::ShardReport),
            ("s/job-00000001/events.jsonl", FileClass::Events),
            ("s/job-00000001/report.json.tmp", FileClass::Report),
            ("s/.write-probe", FileClass::Other),
        ];
        for (path, class) in cases {
            assert_eq!(FileClass::of(Path::new(path)), class, "{path}");
        }
    }

    #[test]
    fn counts_every_operation_and_byte() {
        let vfs = CountingVfs::new(Arc::new(MemFs::new()));
        let dir = Path::new("d");
        vfs.create_dir_all(dir).unwrap();
        let tmp = dir.join("report.json.tmp");
        let mut f = vfs.create(&tmp).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.rename(&tmp, &dir.join("report.json")).unwrap();
        vfs.sync_dir(dir).unwrap();
        let mut log = vfs.open_append(&dir.join("events.jsonl")).unwrap();
        log.write_all(b"{}\n").unwrap();
        drop(log);
        assert_eq!(vfs.read(&dir.join("report.json")).unwrap(), b"hello");
        let c = vfs.counts();
        assert_eq!((c.opens, c.file_syncs, c.dir_syncs, c.renames, c.reads), (2, 1, 1, 1, 1));
        assert_eq!(c.bytes_of(FileClass::Report), 5);
        assert_eq!(c.bytes_of(FileClass::Events), 3);
        assert_eq!(c.bytes_total(), 8);
    }
}
