//! The `homeostasisd` processes of one TCP run.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use homeo_cluster::{free_loopback_addrs, ClusterSpec};
use homeo_protocol::ReplicatedMode;

use crate::gen::HOMEOSTASIS_OPTIMIZER;
use crate::procfs;

/// A run is aborted when its daemons' peak resident memory passes this
/// (the sandbox has 15 GiB; a leak must fail the run, not the machine).
const RSS_LIMIT_BYTES: u64 = 4 << 30;

/// One `homeostasisd` process per site on free loopback ports, reading a
/// config file under the output directory, with stdout and stderr captured
/// there. Dropping the fleet kills and reaps every daemon — on every exit
/// path, a panic included.
pub struct Fleet {
    spec: ClusterSpec,
    children: Vec<Child>,
}

impl Fleet {
    /// Spawns `sites` daemons. `tag` names the config and log files.
    pub fn spawn(
        binary: &Path,
        out_dir: &Path,
        tag: &str,
        sites: usize,
        homeostasis: bool,
    ) -> io::Result<Fleet> {
        let mut spec = ClusterSpec::new(free_loopback_addrs(sites)?);
        if homeostasis {
            spec.mode = ReplicatedMode::Homeostasis {
                optimizer: Some(HOMEOSTASIS_OPTIMIZER),
            };
        }
        let config_path: PathBuf = out_dir.join(format!("{tag}.conf"));
        std::fs::write(&config_path, spec.to_config_string())?;
        let mut fleet = Fleet {
            spec,
            children: Vec::with_capacity(sites),
        };
        for site in 0..sites {
            let log =
                |stream: &str| File::create(out_dir.join(format!("{tag}-site{site}.{stream}")));
            let child = Command::new(binary)
                .arg("--config")
                .arg(&config_path)
                .arg("--site")
                .arg(site.to_string())
                .stdin(Stdio::null())
                .stdout(log("stdout")?)
                .stderr(log("stderr")?)
                .spawn()?; // dropping the partial fleet reaps what spawned
            fleet.children.push(child);
        }
        Ok(fleet)
    }

    /// The cluster the daemons form (addresses and negotiation mode).
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// CPU time the daemons have consumed so far, in microseconds.
    pub fn cpu_micros(&self) -> io::Result<u64> {
        self.children
            .iter()
            .map(|child| procfs::cpu_micros(child.id()))
            .sum()
    }

    /// The same in nanoseconds from the scheduler's clock where the kernel
    /// exports it, else from [`Fleet::cpu_micros`]' 10 ms ticks.
    pub fn cpu_nanos(&self) -> io::Result<u64> {
        let precise: Option<u64> = self
            .children
            .iter()
            .map(|child| procfs::cpu_nanos(child.id()))
            .sum();
        match precise {
            Some(nanos) => Ok(nanos),
            None => Ok(self.cpu_micros()? * 1_000),
        }
    }

    /// Sum of the daemons' peak resident set sizes, in bytes. Errors when
    /// it passes the 4 GiB limit.
    pub fn peak_rss_bytes(&self) -> io::Result<u64> {
        let total = self
            .children
            .iter()
            .map(|child| procfs::peak_rss_bytes(child.id()))
            .sum::<io::Result<u64>>()?;
        if total > RSS_LIMIT_BYTES {
            return Err(io::Error::other(format!(
                "daemon memory passed {} GiB ({total} bytes): run aborted",
                RSS_LIMIT_BYTES >> 30
            )));
        }
        Ok(total)
    }

    /// Errors if a daemon has exited (they serve until killed).
    pub fn check_alive(&mut self) -> io::Result<()> {
        for (site, child) in self.children.iter_mut().enumerate() {
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "homeostasisd site {site} exited early: {status}"
                )));
            }
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
