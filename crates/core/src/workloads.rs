//! Experiment assets and fleet spawning.
//!
//! The study's inputs that we cannot obtain are synthesized here (DESIGN.md
//! substitution table):
//!
//! * **The Landsat-TM scene** → [`synthetic_landsat`]: procedural terrain
//!   (low-frequency relief + ridged detail + sensor noise) with natural-
//!   image statistics — smooth enough to be wavelet-compressible, noisy
//!   enough not to be trivial. Every measured quantity depends only on the
//!   file's size and the streaming access pattern.
//! * **The executables** → [`executable_image`]: byte blobs of period-
//!   plausible sizes whose only observable property is how many 4 KB text
//!   pages they demand-page at startup.
//!
//! [`install_assets`] provisions every node's disk; the `spawn_*_fleet`
//! functions start one rank of the given application per node, wiring PVM
//! task ids.

use essio_apps::{nbody::NbodyConfig, ppm::PpmConfig, wavelet::WaveletConfig};
use essio_kernel::Placement;
use essio_sim::{SimRng, SimTime};

use crate::cluster::Beowulf;

/// On-disk path of the synthetic Landsat scene.
pub const IMAGE_PATH: &str = "/data/landsat.img";
/// Side of the on-disk image (paper: 512×512 bytes).
pub const IMAGE_SIDE: usize = 512;
/// PPM executable path and size (a lean Fortran-style numeric binary).
pub const PPM_TEXT: (&str, u32) = ("/bin/ppm", 96 * 1024);
/// Wavelet executable path and size (image code linked against big
/// imaging libraries — the "large program space" of paper §4.2).
pub const WAVELET_TEXT: (&str, u32) = ("/bin/wavelet", 1408 * 1024);
/// N-body executable path and size.
pub const NBODY_TEXT: (&str, u32) = ("/bin/nbody", 128 * 1024);

/// Procedurally generate the stand-in satellite scene (`side`×`side`
/// bytes, row-major).
pub fn synthetic_landsat(side: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    // Random phases make the terrain seed-dependent but deterministic.
    let ph: Vec<f64> = (0..6)
        .map(|_| rng.range_f64(0.0, std::f64::consts::TAU))
        .collect();
    // Relief and texture are products of an x factor and a y factor, and
    // the ridge phase is a sum of an x term and a y term, so each factor is
    // computed once per column or row. Operands and evaluation order are
    // those of the per-pixel formula, so every pixel's bytes are too.
    let columns: Vec<(f64, f64, f64)> = (0..side)
        .map(|x| {
            let xf = x as f64;
            (
                (xf / 97.0 + ph[0]).sin(),
                xf / 23.0,
                (xf / 7.0 + ph[3]).sin(),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(side * side);
    for y in 0..side {
        let yf = y as f64;
        let (relief_y, ridge_y, texture_y) = (
            (yf / 83.0 + ph[1]).cos(),
            yf / 31.0,
            (yf / 5.0 + ph[4]).sin(),
        );
        for &(relief_x, ridge_x, texture_x) in &columns {
            // Large-scale relief.
            let relief = 52.0 * (relief_x * relief_y);
            // Mid-scale ridges.
            let ridges = 26.0 * ((ridge_x + ridge_y + ph[2]).sin()).abs();
            // Fine texture.
            let texture = 12.0 * (texture_x * texture_y);
            // Sensor noise.
            let noise = 4.0 * rng.normal();
            let v = 112.0 + relief + ridges + texture + noise;
            out.push(v.clamp(0.0, 255.0) as u8);
        }
    }
    out
}

/// A pseudo machine-code blob of `bytes` bytes.
pub fn executable_image(bytes: u32, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    (0..bytes).map(|_| rng.next_u32() as u8).collect()
}

/// Install every application asset on every node's disk.
pub fn install_assets(bw: &mut Beowulf, seed: u64) {
    let image = synthetic_landsat(IMAGE_SIDE, seed ^ 0x1111);
    bw.install_all(IMAGE_PATH, Placement::User, image);
    for (path, bytes) in [PPM_TEXT, WAVELET_TEXT, NBODY_TEXT] {
        bw.install_all(
            path,
            Placement::User,
            executable_image(bytes, seed ^ bytes as u64),
        );
    }
}

/// Spawn one PPM rank per node. Returns the rank-0 task id.
pub fn spawn_ppm_fleet(bw: &mut Beowulf, template: &PpmConfig, start: SimTime) -> u32 {
    let nodes = bw.nodes();
    let task_base = bw.next_task();
    for n in 0..nodes {
        let mut cfg = template.clone();
        cfg.rank = n as u32;
        cfg.ntasks = nodes as u32;
        cfg.task_base = task_base;
        bw.spawn(n, "ppm", start, move |ctx| {
            essio_apps::ppm::run(&cfg, ctx);
            0
        });
    }
    task_base
}

/// Spawn one wavelet rank per node. Returns the rank-0 task id.
pub fn spawn_wavelet_fleet(bw: &mut Beowulf, template: &WaveletConfig, start: SimTime) -> u32 {
    let nodes = bw.nodes();
    let task_base = bw.next_task();
    for n in 0..nodes {
        let mut cfg = template.clone();
        cfg.rank = n as u32;
        cfg.ntasks = nodes as u32;
        cfg.task_base = task_base;
        bw.spawn(n, "wavelet", start, move |ctx| {
            let (e_before, _e_after, _sparsity) = essio_apps::wavelet::run(&cfg, ctx);
            // Sanity: a real image has nonzero energy.
            assert!(e_before > 0.0);
            0
        });
    }
    task_base
}

/// Spawn one N-body rank per node. Returns the rank-0 task id.
pub fn spawn_nbody_fleet(bw: &mut Beowulf, template: &NbodyConfig, start: SimTime) -> u32 {
    let nodes = bw.nodes();
    let task_base = bw.next_task();
    for n in 0..nodes {
        let mut cfg = template.clone();
        cfg.rank = n as u32;
        cfg.ntasks = nodes as u32;
        cfg.task_base = task_base;
        cfg.seed = template.seed.wrapping_add(n as u64 * 0x9E37);
        bw.spawn(n, "nbody", start, move |ctx| {
            let (interactions, _) = essio_apps::nbody::run(&cfg, ctx);
            assert!(interactions > 0);
            0
        });
    }
    task_base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_deterministic_per_seed() {
        let a = synthetic_landsat(64, 7);
        let b = synthetic_landsat(64, 7);
        let c = synthetic_landsat(64, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64 * 64);
    }

    /// FNV-1a 64 of the full-size scene for two seeds. Wavelet timing does
    /// not depend on pixel values, so trace fingerprints cannot catch a
    /// float drift in the scene; these pins do.
    #[test]
    fn image_bytes_are_pinned() {
        // `essio_conform::Fnv64`, folded here: essio-conform depends on
        // this crate.
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        for (seed, pinned) in [(1u64, 0x20e0_2b64_5ab1_6c2eu64), (2, 0x8cfe_0f6c_06b0_254f)] {
            assert_eq!(
                fnv1a(&synthetic_landsat(IMAGE_SIDE, seed)),
                pinned,
                "scene bytes changed for seed {seed}"
            );
        }
    }

    #[test]
    fn image_has_natural_statistics() {
        // Full asset size: smaller windows may miss a relief period and
        // lack dark/bright regions for some phase draws.
        let img = synthetic_landsat(IMAGE_SIDE, 1);
        let mean = img.iter().map(|&v| v as f64).sum::<f64>() / img.len() as f64;
        assert!((60.0..200.0).contains(&mean), "mean {mean}");
        // Decent dynamic range without saturating everywhere.
        let lo = img.iter().filter(|&&v| v < 95).count();
        let hi = img.iter().filter(|&&v| v > 160).count();
        assert!(lo > img.len() / 50, "too bright");
        assert!(hi > img.len() / 50, "too dark");
        let saturated = img.iter().filter(|&&v| v == 0 || v == 255).count();
        assert!(saturated < img.len() / 20, "{saturated} clipped pixels");
    }

    #[test]
    fn image_is_wavelet_compressible() {
        use essio_apps::wavelet::transform::{analyze_2d, sparsity, Filter, Image};
        let raw = synthetic_landsat(128, 3);
        let mut img = Image::from_bytes(128, &raw);
        analyze_2d(&mut img, 4, Filter::Daub4);
        let s = sparsity(&img, 2.0);
        assert!(s > 0.25, "scene should compress, sparsity {s}");
    }

    #[test]
    fn executables_have_requested_sizes() {
        assert_eq!(executable_image(1000, 1).len(), 1000);
        assert_ne!(executable_image(1000, 1), executable_image(1000, 2));
    }
}
