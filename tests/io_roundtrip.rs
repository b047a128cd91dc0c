//! Cross-crate integration test of the image I/O substrate: write and read
//! the supported formats through the public API and feed a loaded file into
//! the tone-mapping pipeline.

use tonemap_zynq_repro::prelude::*;

#[test]
fn radiance_file_round_trip_feeds_the_pipeline() {
    // Build a colour HDR image, serialise it as a Radiance RGBE file in
    // memory, read it back and tone-map it.
    let original = SceneKind::MemorialComposite.generate_rgb(128, 96, 4);
    let mut file = Vec::new();
    hdr_image::io::write_rgbe(&original, &mut file).unwrap();
    let loaded = hdr_image::io::read_rgbe(file.as_slice()).unwrap();
    assert_eq!(loaded.dimensions(), original.dimensions());

    // The shared-exponent format is lossy (~1 % relative error); check the
    // luminance plane is preserved to that accuracy.
    let lum_a = hdr_image::rgb::luminance_plane(&original);
    let lum_b = hdr_image::rgb::luminance_plane(&loaded);
    for (a, b) in lum_a.pixels().iter().zip(lum_b.pixels()) {
        if *a > 1e-4 {
            assert!((a - b).abs() / a < 0.02, "luminance drifted {a} -> {b}");
        }
    }

    let mapper = ToneMapper::new(ToneMapParams::paper_default());
    let out = mapper.map_rgb::<f32>(&loaded).unwrap();
    assert_eq!(out.dimensions(), (128, 96));
}

#[test]
fn pfm_round_trip_is_bit_exact_for_intermediates() {
    let hdr = SceneKind::GradientRamp.generate(64, 64, 8);
    let params = ToneMapParams::paper_default();
    let normalized = tonemap_core::normalize::normalize(&hdr);
    let mask = tonemap_core::blur::blur_separable(&normalized, &params.blur);
    let adjusted = ToneMapper::new(params).map_luminance_f32(&hdr);

    for image in [&normalized, &mask, &adjusted] {
        let mut buffer = Vec::new();
        hdr_image::io::write_pfm(image, &mut buffer).unwrap();
        let back = hdr_image::io::read_pfm(buffer.as_slice()).unwrap();
        assert_eq!(&back, image, "PFM round trip must be exact");
    }
}

#[test]
fn tone_mapped_output_survives_pgm_round_trip() {
    let hdr = SceneKind::StarField.generate(80, 60, 12);
    let mapper = ToneMapper::new(ToneMapParams::paper_default());
    let ldr = mapper.map_luminance_f32(&hdr).to_ldr();

    let mut buffer = Vec::new();
    hdr_image::io::write_pgm(&ldr, &mut buffer).unwrap();
    let back = hdr_image::io::read_pgm(buffer.as_slice()).unwrap();
    assert_eq!(back, ldr);
}

#[test]
fn malformed_files_are_rejected_not_panicked_on() {
    assert!(hdr_image::io::read_rgbe(&b"garbage"[..]).is_err());
    assert!(hdr_image::io::read_pfm(&b"garbage"[..]).is_err());
    assert!(hdr_image::io::read_pgm(&b"garbage"[..]).is_err());
    // Truncated but well-formed header.
    let mut truncated = Vec::new();
    hdr_image::io::write_rgbe(
        &SceneKind::SunAndShadow.generate_rgb(16, 16, 1),
        &mut truncated,
    )
    .unwrap();
    truncated.truncate(truncated.len() / 2);
    assert!(hdr_image::io::read_rgbe(truncated.as_slice()).is_err());
}
