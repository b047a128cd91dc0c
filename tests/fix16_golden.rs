//! Golden output hashes of the Q4.12 fixed-point engines, and of the float
//! and colour engines.
//!
//! Every other Fix16 parity check compares two engines that share
//! `apfixed::Fix` (streaming vs two-pass, served vs local) or checks a PSNR
//! floor against the float reference. A change inside `Fix` itself — its
//! rounding, saturation or compute width — moves both sides of such a check
//! and still passes. These hashes pin the exact output bits of the Fix16
//! engines on every synthetic scene, so any change to the fixed-point
//! arithmetic fails here.
//!
//! The float and colour rows close the same gap for the `f32` point chains
//! and the colour walk: both planners share `run_color_plan`, so the colour
//! parity tests cannot see a drift inside it. The RGB rows hash every
//! pixel's r, g and b bits.
//!
//! The engine rows pin every named engine the other tables leave out, a
//! parameter override on each planner, and a `schedule=` spec on each
//! sample format, so a change to how a spec resolves to an executor and its
//! numerics fails here even when it moves both sides of a parity check.
//! The video rows pin the frames of the two stream specs a video session
//! serves, through the same resolution.
//!
//! The hashes cover the whole pipeline, so the `f32` point stages feed
//! into them too: masking and gamma through `tonemap-core`'s own
//! `exp2`/`log2` power kernel, which is the same on every platform, and
//! the other curves through the platform's libm. When a deliberate pixel
//! change lands, the failure message prints the full replacement table.
//!
//! Every row whose plan masks or applies gamma was re-recorded when that
//! kernel replaced libm's `powf`/`exp2f` (about one ulp per moved pixel).
//! The `sw-fix16`, `hsv-reinhard`, `aces` and Reinhard video rows did not
//! move.

use tonemap_zynq_repro::hdr_image::rgb::Rgb;
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

/// `(spec, scene, FNV-1a 64 of the output pixels' bits)`. The `sw-fix16`
/// rows date from the `i64`-storage, `i128`-arithmetic `Fix` that preceded
/// the narrow datapath; the others from the `f32` power kernel.
const GOLDEN: [(&str, &str, u64); 20] = [
    ("hw-fix16", "window-in-dark-room", 0x39df774584873a44),
    ("hw-fix16", "sun-and-shadow", 0x8b4f3db376c0cc7a),
    ("hw-fix16", "gradient-ramp", 0x69608fd977d65729),
    ("hw-fix16", "memorial-composite", 0xafa633cf5c0b3c5a),
    ("hw-fix16", "star-field", 0xcd7d260e91170ab8),
    ("hw-fix16-stream", "window-in-dark-room", 0x39df774584873a44),
    ("hw-fix16-stream", "sun-and-shadow", 0x8b4f3db376c0cc7a),
    ("hw-fix16-stream", "gradient-ramp", 0x69608fd977d65729),
    ("hw-fix16-stream", "memorial-composite", 0xafa633cf5c0b3c5a),
    ("hw-fix16-stream", "star-field", 0xcd7d260e91170ab8),
    ("sw-fix16", "window-in-dark-room", 0x34c63318d9fdc9a7),
    ("sw-fix16", "sun-and-shadow", 0x67cbd7ecc11d6118),
    ("sw-fix16", "gradient-ramp", 0xea6527a89d8cfdb5),
    ("sw-fix16", "memorial-composite", 0xfd3445b988b62b58),
    ("sw-fix16", "star-field", 0x2fbf5c7adadab90b),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "window-in-dark-room",
        0x537c8c2187c41125,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "sun-and-shadow",
        0xdf62d051d39bed76,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "gradient-ramp",
        0x5a0b8fb13ffe73a3,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "memorial-composite",
        0x9ba8a3b79c39d7b9,
    ),
    (
        "hw-fix16-stream?pipeline=basedetail",
        "star-field",
        0xc1e25a29cf25c697,
    ),
];

/// The float engines, on luminance requests.
const FLOAT_SPECS: [&str; 2] = ["sw-f32-stream", "sw-f32-stream?pipeline=basedetail"];

/// `(spec, scene, hash)` of the float engines' luminance outputs, recorded
/// with the `f32` power kernel.
const FLOAT_GOLDEN: [(&str, &str, u64); 10] = [
    ("sw-f32-stream", "window-in-dark-room", 0x33303c9eb0bf20c4),
    ("sw-f32-stream", "sun-and-shadow", 0xd3d5432ff5657a52),
    ("sw-f32-stream", "gradient-ramp", 0x282726824d3cac4f),
    ("sw-f32-stream", "memorial-composite", 0x2d411028eebe8cbe),
    ("sw-f32-stream", "star-field", 0x9d3bd49c48516454),
    (
        "sw-f32-stream?pipeline=basedetail",
        "window-in-dark-room",
        0x2f513fcfaaf54ffe,
    ),
    (
        "sw-f32-stream?pipeline=basedetail",
        "sun-and-shadow",
        0x70c2266a41345f4d,
    ),
    (
        "sw-f32-stream?pipeline=basedetail",
        "gradient-ramp",
        0x8898c12fa88a316c,
    ),
    (
        "sw-f32-stream?pipeline=basedetail",
        "memorial-composite",
        0x52a92900d0f2b5bc,
    ),
    (
        "sw-f32-stream?pipeline=basedetail",
        "star-field",
        0xd223449f1e606c69,
    ),
];

/// The colour rows, on RGB requests: a colour-managed preset on each
/// planner and on the Fix16 stream, plus the scalar plan auto-composed into
/// the extract → plan → reapply ratio wrapper.
const RGB_SPECS: [&str; 4] = [
    "sw-f32-stream?pipeline=hsv-reinhard",
    "sw-f32?pipeline=pq-out",
    "hw-fix16-stream?pipeline=aces",
    "sw-f32-stream",
];

/// `(spec, scene, hash over r, g, b bits)` of the colour rows. The
/// `hsv-reinhard` and `aces` rows date from the per-pixel colour fold that
/// preceded the row kernels; the masking rows from the `f32` power kernel.
const RGB_GOLDEN: [(&str, &str, u64); 20] = [
    (
        "sw-f32-stream?pipeline=hsv-reinhard",
        "window-in-dark-room",
        0xb0186aacbf8705d3,
    ),
    (
        "sw-f32-stream?pipeline=hsv-reinhard",
        "sun-and-shadow",
        0xa3e6d9ddc6544a38,
    ),
    (
        "sw-f32-stream?pipeline=hsv-reinhard",
        "gradient-ramp",
        0x870a89d10c17a1bf,
    ),
    (
        "sw-f32-stream?pipeline=hsv-reinhard",
        "memorial-composite",
        0x3d7ad1455dcab833,
    ),
    (
        "sw-f32-stream?pipeline=hsv-reinhard",
        "star-field",
        0x0de63a5e301ccf57,
    ),
    (
        "sw-f32?pipeline=pq-out",
        "window-in-dark-room",
        0x4ca6b902516cf1bf,
    ),
    (
        "sw-f32?pipeline=pq-out",
        "sun-and-shadow",
        0x5b92cc74ab2233ed,
    ),
    (
        "sw-f32?pipeline=pq-out",
        "gradient-ramp",
        0xb67d08fc709e2f19,
    ),
    (
        "sw-f32?pipeline=pq-out",
        "memorial-composite",
        0xf81d11bd9b4c58f3,
    ),
    ("sw-f32?pipeline=pq-out", "star-field", 0x35c88ef6d60ef521),
    (
        "hw-fix16-stream?pipeline=aces",
        "window-in-dark-room",
        0x83dcbddea4b3003f,
    ),
    (
        "hw-fix16-stream?pipeline=aces",
        "sun-and-shadow",
        0x3f2c27b32ca285d6,
    ),
    (
        "hw-fix16-stream?pipeline=aces",
        "gradient-ramp",
        0x768368475a8250ea,
    ),
    (
        "hw-fix16-stream?pipeline=aces",
        "memorial-composite",
        0xaee7ed89441faeb1,
    ),
    (
        "hw-fix16-stream?pipeline=aces",
        "star-field",
        0x322aa7f61ef5c166,
    ),
    ("sw-f32-stream", "window-in-dark-room", 0x2c4c9bbe9ae4dbdc),
    ("sw-f32-stream", "sun-and-shadow", 0xad4ecd2c5bd4c386),
    ("sw-f32-stream", "gradient-ramp", 0x03beb15d364296f4),
    ("sw-f32-stream", "memorial-composite", 0x8b0bb77ff680e963),
    ("sw-f32-stream", "star-field", 0x42002122c9356d81),
];

/// The remaining named engines, an override on each planner, and a
/// `schedule=` spec on each sample format, on luminance requests.
const ENGINE_SPECS: [&str; 8] = [
    "sw-f32",
    "hw-marked",
    "hw-sequential",
    "hw-pragmas",
    "sw-f32?sigma=3.5",
    "hw-fix16-stream?sigma=5&radius=12",
    "sw-f32?pipeline=basedetail&schedule=auto",
    "hw-fix16?schedule=stream&threads=2",
];

/// `(spec, scene, hash)` of the engine rows, recorded with the `f32` power
/// kernel.
const ENGINE_GOLDEN: [(&str, &str, u64); 40] = [
    ("sw-f32", "window-in-dark-room", 0x33303c9eb0bf20c4),
    ("sw-f32", "sun-and-shadow", 0xd3d5432ff5657a52),
    ("sw-f32", "gradient-ramp", 0x282726824d3cac4f),
    ("sw-f32", "memorial-composite", 0x2d411028eebe8cbe),
    ("sw-f32", "star-field", 0x9d3bd49c48516454),
    ("hw-marked", "window-in-dark-room", 0x33303c9eb0bf20c4),
    ("hw-marked", "sun-and-shadow", 0xd3d5432ff5657a52),
    ("hw-marked", "gradient-ramp", 0x282726824d3cac4f),
    ("hw-marked", "memorial-composite", 0x2d411028eebe8cbe),
    ("hw-marked", "star-field", 0x9d3bd49c48516454),
    ("hw-sequential", "window-in-dark-room", 0x33303c9eb0bf20c4),
    ("hw-sequential", "sun-and-shadow", 0xd3d5432ff5657a52),
    ("hw-sequential", "gradient-ramp", 0x282726824d3cac4f),
    ("hw-sequential", "memorial-composite", 0x2d411028eebe8cbe),
    ("hw-sequential", "star-field", 0x9d3bd49c48516454),
    ("hw-pragmas", "window-in-dark-room", 0x33303c9eb0bf20c4),
    ("hw-pragmas", "sun-and-shadow", 0xd3d5432ff5657a52),
    ("hw-pragmas", "gradient-ramp", 0x282726824d3cac4f),
    ("hw-pragmas", "memorial-composite", 0x2d411028eebe8cbe),
    ("hw-pragmas", "star-field", 0x9d3bd49c48516454),
    (
        "sw-f32?sigma=3.5",
        "window-in-dark-room",
        0x7fae7a7fcca6d075,
    ),
    ("sw-f32?sigma=3.5", "sun-and-shadow", 0xdcb258b6b57d9ac8),
    ("sw-f32?sigma=3.5", "gradient-ramp", 0x38c0167f305a3922),
    ("sw-f32?sigma=3.5", "memorial-composite", 0x1a31648d87da1765),
    ("sw-f32?sigma=3.5", "star-field", 0xd4b0d3778452c41b),
    (
        "hw-fix16-stream?sigma=5&radius=12",
        "window-in-dark-room",
        0xc9b8db89a3550fd0,
    ),
    (
        "hw-fix16-stream?sigma=5&radius=12",
        "sun-and-shadow",
        0xffd0c0de4568f928,
    ),
    (
        "hw-fix16-stream?sigma=5&radius=12",
        "gradient-ramp",
        0x1f1cde8a46cd9b0a,
    ),
    (
        "hw-fix16-stream?sigma=5&radius=12",
        "memorial-composite",
        0x3b429a9ab23e5f90,
    ),
    (
        "hw-fix16-stream?sigma=5&radius=12",
        "star-field",
        0xe377c19b2601188b,
    ),
    (
        "sw-f32?pipeline=basedetail&schedule=auto",
        "window-in-dark-room",
        0x2f513fcfaaf54ffe,
    ),
    (
        "sw-f32?pipeline=basedetail&schedule=auto",
        "sun-and-shadow",
        0x70c2266a41345f4d,
    ),
    (
        "sw-f32?pipeline=basedetail&schedule=auto",
        "gradient-ramp",
        0x8898c12fa88a316c,
    ),
    (
        "sw-f32?pipeline=basedetail&schedule=auto",
        "memorial-composite",
        0x52a92900d0f2b5bc,
    ),
    (
        "sw-f32?pipeline=basedetail&schedule=auto",
        "star-field",
        0xd223449f1e606c69,
    ),
    (
        "hw-fix16?schedule=stream&threads=2",
        "window-in-dark-room",
        0x39df774584873a44,
    ),
    (
        "hw-fix16?schedule=stream&threads=2",
        "sun-and-shadow",
        0x8b4f3db376c0cc7a,
    ),
    (
        "hw-fix16?schedule=stream&threads=2",
        "gradient-ramp",
        0x69608fd977d65729,
    ),
    (
        "hw-fix16?schedule=stream&threads=2",
        "memorial-composite",
        0xafa633cf5c0b3c5a,
    ),
    (
        "hw-fix16?schedule=stream&threads=2",
        "star-field",
        0xcd7d260e91170ab8,
    ),
];

/// The two stream specs a video session serves: leaky adaptation on the
/// float stream engine, and on the Fix16 auto-scheduled Reinhard chain.
const VIDEO_SPECS: [&str; 2] = [
    "sw-f32-stream?temporal=leaky&tau=4",
    "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
];

/// Frames in the video sequence; the scene cuts at [`VIDEO_CUT`].
const VIDEO_FRAMES: usize = 6;
const VIDEO_CUT: usize = 3;

/// `(spec, frame, hash)` of each session's output frames over a seeded
/// ramp-with-cut sequence. The Reinhard rows date from the engine-name
/// table that preceded the shared engine rows; the masking rows from the
/// `f32` power kernel.
const VIDEO_GOLDEN: [(&str, &str, u64); 12] = [
    (
        "sw-f32-stream?temporal=leaky&tau=4",
        "frame 0",
        0xc1f1d626235b4f82,
    ),
    (
        "sw-f32-stream?temporal=leaky&tau=4",
        "frame 1",
        0xde5fa29f0d6c42d0,
    ),
    (
        "sw-f32-stream?temporal=leaky&tau=4",
        "frame 2",
        0xc34ecb1ad449f66e,
    ),
    (
        "sw-f32-stream?temporal=leaky&tau=4",
        "frame 3",
        0x286638d811bf72a0,
    ),
    (
        "sw-f32-stream?temporal=leaky&tau=4",
        "frame 4",
        0x286638d811bf72a0,
    ),
    (
        "sw-f32-stream?temporal=leaky&tau=4",
        "frame 5",
        0x286638d811bf72a0,
    ),
    (
        "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
        "frame 0",
        0x428110dacf67f111,
    ),
    (
        "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
        "frame 1",
        0x66653aa32022f31b,
    ),
    (
        "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
        "frame 2",
        0x1b4c21f096ac0735,
    ),
    (
        "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
        "frame 3",
        0xe2abc41b0ece9b40,
    ),
    (
        "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
        "frame 4",
        0xe2abc41b0ece9b40,
    ),
    (
        "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
        "frame 5",
        0xe2abc41b0ece9b40,
    ),
];

/// FNV-1a over the dimensions and a stream of 32-bit words.
fn fnv1a(width: usize, height: usize, bits: impl Iterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let words = [width as u32, height as u32].into_iter().chain(bits);
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over the dimensions and every pixel's IEEE-754 bits.
fn hash_image(image: &LuminanceImage) -> u64 {
    let (width, height) = image.dimensions();
    fnv1a(width, height, image.pixels().iter().map(|v| v.to_bits()))
}

/// FNV-1a over the dimensions and every pixel's r, g, b bits, in order.
fn hash_rgb(image: &RgbImage) -> u64 {
    let (width, height) = image.dimensions();
    let bits = image
        .pixels()
        .iter()
        .flat_map(|p| [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()]);
    fnv1a(width, height, bits)
}

fn measured(specs: &[&'static str], rgb: bool) -> Vec<(&'static str, String, u64)> {
    let registry = BackendRegistry::standard();
    let mut table = Vec::new();
    for &spec in specs {
        for scene in SceneKind::ALL {
            let hash = if rgb {
                let hdr = scene.generate_rgb(WIDTH, HEIGHT, SEED);
                let response = registry
                    .execute(&TonemapRequest::rgb(&hdr).on_backend(spec))
                    .unwrap_or_else(|e| panic!("{spec} on {scene}: {e}"));
                hash_rgb(response.rgb().expect("display-referred rgb payload"))
            } else {
                let hdr = scene.generate(WIDTH, HEIGHT, SEED);
                let response = registry
                    .execute(&TonemapRequest::luminance(&hdr).on_backend(spec))
                    .unwrap_or_else(|e| panic!("{spec} on {scene}: {e}"));
                hash_image(response.luminance().expect("display-referred payload"))
            };
            table.push((spec, scene.to_string(), hash));
        }
    }
    table
}

/// Each video spec's output frames, one [`VideoSession`] per spec over
/// the same ramp-with-cut sequence.
fn measured_video(specs: &[&'static str]) -> Vec<(&'static str, String, u64)> {
    let frames = FrameSequence::new(
        SequenceKind::RampWithCut {
            decades: 1.0,
            cut_at: VIDEO_CUT,
        },
        SceneKind::WindowInDarkRoom,
        WIDTH,
        HEIGHT,
        VIDEO_FRAMES,
        SEED,
    );
    let mut table = Vec::new();
    for &spec in specs {
        let mut session = VideoSession::from_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        for (index, frame) in frames.frames().enumerate() {
            let (output, _) = session.process(&frame);
            table.push((spec, format!("frame {index}"), hash_image(&output)));
        }
    }
    table
}

/// Compares a measured table against its golden rows; on a mismatch the
/// panic message carries the full replacement table.
fn assert_golden(
    what: &str,
    name: &str,
    actual: &[(&str, String, u64)],
    golden: &[(&str, &str, u64)],
) {
    let expected: Vec<(&str, String, u64)> = golden
        .iter()
        .map(|&(spec, scene, hash)| (spec, scene.to_string(), hash))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (spec, scene, hash) in actual {
            table.push_str(&format!("    (\"{spec}\", \"{scene}\", {hash:#018x}),\n"));
        }
        panic!(
            "{what} output bits changed. If the change is deliberate, replace {name} with:\n\
             const {name}: [(&str, &str, u64); {}] = [\n{table}];",
            actual.len()
        );
    }
}

#[test]
fn fix16_engines_reproduce_the_golden_output_bits() {
    assert_golden("Fix16", "GOLDEN", &measured(&SPECS, false), &GOLDEN);
}

#[test]
fn float_engines_reproduce_the_golden_output_bits() {
    assert_golden(
        "Float",
        "FLOAT_GOLDEN",
        &measured(&FLOAT_SPECS, false),
        &FLOAT_GOLDEN,
    );
}

#[test]
fn colour_engines_reproduce_the_golden_output_bits() {
    assert_golden(
        "Colour",
        "RGB_GOLDEN",
        &measured(&RGB_SPECS, true),
        &RGB_GOLDEN,
    );
}

#[test]
fn every_engine_reproduces_the_golden_output_bits() {
    assert_golden(
        "Engine",
        "ENGINE_GOLDEN",
        &measured(&ENGINE_SPECS, false),
        &ENGINE_GOLDEN,
    );
}

#[test]
fn video_sessions_reproduce_the_golden_frames() {
    assert_golden(
        "Video",
        "VIDEO_GOLDEN",
        &measured_video(&VIDEO_SPECS),
        &VIDEO_GOLDEN,
    );
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

#[test]
fn the_rgb_hash_sees_every_channel() {
    let grey = RgbImage::filled(3, 2, Rgb::splat(0.5f32));
    let base = hash_rgb(&grey);
    let nudged = f32::from_bits(0.5f32.to_bits() + 1);
    for channel in 0..3 {
        let mut image = grey.clone();
        let mut pixel = Rgb::splat(0.5f32);
        match channel {
            0 => pixel.r = nudged,
            1 => pixel.g = nudged,
            _ => pixel.b = nudged,
        }
        image.set(1, 1, pixel);
        assert_ne!(hash_rgb(&image), base, "channel {channel} not hashed");
    }
}
