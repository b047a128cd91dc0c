//! Golden output hashes of the Q4.12 fixed-point engines.
//!
//! Every other Fix16 parity check compares two engines that share
//! `apfixed::Fix` (streaming vs two-pass, served vs local) or checks a PSNR
//! floor against the float reference. A change inside `Fix` itself — its
//! rounding, saturation or compute width — moves both sides of such a check
//! and still passes. These hashes pin the exact output bits of the Fix16
//! engines on every synthetic scene, so any change to the fixed-point
//! arithmetic fails here.
//!
//! The hashes cover the whole pipeline, so the `f32` point stages and the
//! platform's `powf`/`exp` feed into them too. When a deliberate pixel
//! change lands, the failure message prints the full replacement table.

use tonemap_zynq_repro::prelude::*;

const WIDTH: usize = 97;
const HEIGHT: usize = 61;
const SEED: u64 = 12;

const SPECS: [&str; 4] = [
    "hw-fix16",
    "hw-fix16-stream",
    "sw-fix16",
    "hw-fix16-stream?pipeline=basedetail",
];

/// `(spec, scene, FNV-1a 64 of the output pixels' bits)`, recorded with the
/// `i64`-storage, `i128`-arithmetic `Fix` that preceded the narrow datapath.
const GOLDEN: [(&str, &str, u64); 20] = [
    ("hw-fix16", "window-in-dark-room", 0x9ebf40e02f4cbf76),
    ("hw-fix16", "sun-and-shadow", 0x69c3bf0c8ee31f9f),
    ("hw-fix16", "gradient-ramp", 0x6e4009b81558f4f4),
    ("hw-fix16", "memorial-composite", 0x4400764cec29c2ca),
    ("hw-fix16", "star-field", 0xe6aa36fda4063f22),
    ("hw-fix16-stream", "window-in-dark-room", 0x9ebf40e02f4cbf76),
    ("hw-fix16-stream", "sun-and-shadow", 0x69c3bf0c8ee31f9f),
    ("hw-fix16-stream", "gradient-ramp", 0x6e4009b81558f4f4),
    ("hw-fix16-stream", "memorial-composite", 0x4400764cec29c2ca),
    ("hw-fix16-stream", "star-field", 0xe6aa36fda4063f22),
    ("sw-fix16", "window-in-dark-room", 0x34c63318d9fdc9a7),
    ("sw-fix16", "sun-and-shadow", 0x67cbd7ecc11d6118),
    ("sw-fix16", "gradient-ramp", 0xea6527a89d8cfdb5),
    ("sw-fix16", "memorial-composite", 0xfd3445b988b62b58),
    ("sw-fix16", "star-field", 0x2fbf5c7adadab90b),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "window-in-dark-room",
        0x927cba9d735362ea,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "sun-and-shadow",
        0xab69552b3797de06,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "gradient-ramp",
        0xe6fc259cc57eed45,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "memorial-composite",
        0xd2aa783636986579,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "star-field",
        0xe350a54a0aa23b1f,
    ),
];

/// FNV-1a over the dimensions and every pixel's IEEE-754 bits.
fn hash_image(image: &LuminanceImage) -> u64 {
    let (width, height) = image.dimensions();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let words = [width as u32, height as u32]
        .into_iter()
        .chain(image.pixels().iter().map(|v| v.to_bits()));
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn measured() -> Vec<(&'static str, String, u64)> {
    let registry = BackendRegistry::standard();
    let mut table = Vec::new();
    for spec in SPECS {
        for scene in SceneKind::ALL {
            let hdr = scene.generate(WIDTH, HEIGHT, SEED);
            let response = registry
                .execute(&TonemapRequest::luminance(&hdr).on_backend(spec))
                .unwrap_or_else(|e| panic!("{spec} on {scene}: {e}"));
            let image = response.luminance().expect("display-referred payload");
            table.push((spec, scene.to_string(), hash_image(image)));
        }
    }
    table
}

#[test]
fn fix16_engines_reproduce_the_golden_output_bits() {
    let actual = measured();
    let expected: Vec<(&str, String, u64)> = GOLDEN
        .iter()
        .map(|&(spec, scene, hash)| (spec, scene.to_string(), hash))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (spec, scene, hash) in &actual {
            table.push_str(&format!("    (\"{spec}\", \"{scene}\", {hash:#018x}),\n"));
        }
        panic!(
            "Fix16 output bits changed. If the change is deliberate, replace GOLDEN with:\n\
             const GOLDEN: [(&str, &str, u64); {}] = [\n{table}];",
            actual.len()
        );
    }
}

#[test]
fn the_hash_sees_every_bit_and_the_shape() {
    let a = LuminanceImage::filled(3, 2, 0.5f32);
    let mut b = a.clone();
    b.set(2, 1, f32::from_bits(0.5f32.to_bits() + 1));
    assert_ne!(hash_image(&a), hash_image(&b));
    let c = LuminanceImage::filled(2, 3, 0.5f32);
    assert_ne!(hash_image(&a), hash_image(&c));
}
