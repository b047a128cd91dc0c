//! Seeded workload inputs: frames, specs, priorities, sizes and arrival
//! times. Everything here is a pure function of the seed, so two runs with
//! the same seed serve the same inputs; the program under test only ever
//! sees the generated requests.

use hdr_image::sequence::{FrameSequence, SequenceKind};
use hdr_image::synth::SceneKind;
use hdr_image::{LuminanceImage, RgbImage};
use std::sync::Arc;
use tonemap_service::{JobRequest, Priority};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a job carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InputKind {
    Luminance,
    /// Raw pixels with claimed dimensions, staged through the service's
    /// frame pool.
    Raw,
    Rgb,
}

/// One job shape of a mix: input kind and spec string.
pub type Template = (InputKind, &'static str);

// ---------------------------------------------------------------- stills

pub const STILLS_SIZE: (usize, usize) = (1024, 768);

/// The stills mix, with how many of the five scene frames each spec
/// serves per block. Every client serves whole blocks in seeded order, so
/// each run serves the same shares: pixel costs depend on the scene
/// (`powf` has fast paths), and an unbalanced draw moved the metrics from
/// seed to seed.
///
/// `hw-fix16-stream` runs ~12× slower than the float specs at this size
/// and its time swings most with the host's load. At an equal share it set
/// the p90 and three quarters of the run time, and the p90 spread
/// between runs exceeded 0.25; at one job in sixteen it still takes about
/// a third of the time.
pub const STILLS_MIX: [(Template, usize); 4] = [
    ((InputKind::Luminance, "sw-f32-stream"), 5),
    ((InputKind::Luminance, "hw-fix16-stream"), 1),
    (
        (
            InputKind::Luminance,
            "sw-f32?pipeline=basedetail&schedule=auto",
        ),
        5,
    ),
    ((InputKind::Rgb, "sw-f32-stream?pipeline=hsv-reinhard"), 5),
];

/// Closed-loop clients, each a user waiting on every still it submits, so
/// every stills job is interactive.
pub const STILLS_CLIENTS: usize = 2;

/// Jobs planned per client, far more than a run can complete.
const STILLS_PLANNED: usize = 4096;

/// A planned job: indices into the mix and the frame pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StillJob {
    pub template: usize,
    pub frame: usize,
}

#[derive(Debug, Clone)]
pub struct StillsInputs {
    /// One luminance and one RGB frame per scene kind.
    pub luminance: Vec<Arc<LuminanceImage>>,
    pub rgb: Vec<Arc<RgbImage>>,
    pub clients: Vec<Vec<StillJob>>,
}

impl StillsInputs {
    pub fn generate(seed: u64) -> Self {
        Self::generate_sized(seed, STILLS_SIZE)
    }

    fn generate_sized(seed: u64, (w, h): (usize, usize)) -> Self {
        let mut rng = Rng::new(seed, 1);
        let frame_seeds: Vec<u64> = SceneKind::ALL.iter().map(|_| rng.next_u64()).collect();
        let luminance = SceneKind::ALL
            .iter()
            .zip(&frame_seeds)
            .map(|(scene, &s)| Arc::new(scene.generate(w, h, s)))
            .collect();
        let rgb = SceneKind::ALL
            .iter()
            .zip(&frame_seeds)
            .map(|(scene, &s)| Arc::new(scene.generate_rgb(w, h, s ^ 0x5EED)))
            .collect();
        let clients = (0..STILLS_CLIENTS)
            .map(|client| {
                let mut rng = Rng::new(seed, 100 + client as u64);
                let mut jobs = Vec::with_capacity(STILLS_PLANNED);
                for block in 0.. {
                    if jobs.len() >= STILLS_PLANNED {
                        break;
                    }
                    let mut shapes: Vec<StillJob> = STILLS_MIX
                        .iter()
                        .enumerate()
                        .flat_map(|(template, &(_, frames))| {
                            (0..frames).map(move |i| StillJob {
                                template,
                                frame: (block * frames + i) % SceneKind::ALL.len(),
                            })
                        })
                        .collect();
                    rng.shuffle(&mut shapes);
                    jobs.extend(shapes);
                }
                jobs
            })
            .collect();
        StillsInputs {
            luminance,
            rgb,
            clients,
        }
    }

    pub fn request(&self, job: StillJob) -> JobRequest {
        let ((kind, spec), _) = STILLS_MIX[job.template];
        match kind {
            InputKind::Rgb => JobRequest::rgb(Arc::clone(&self.rgb[job.frame])),
            _ => JobRequest::luminance(Arc::clone(&self.luminance[job.frame])),
        }
        .on_backend(spec)
    }
}

// ---------------------------------------------------------------- thumbs

pub const THUMB_SIZES: [(usize, usize); 4] = [(64, 64), (128, 96), (192, 144), (256, 256)];

/// Distinct frames per size and input kind.
pub const THUMB_FRAMES: usize = 3;

/// Scalar-input specs: all eight engine names plus a bounded set of
/// overrides, pipelines and `schedule=auto`.
pub const THUMB_SCALAR_SPECS: [&str; 15] = [
    "sw-f32",
    "sw-fix16",
    "hw-marked",
    "hw-sequential",
    "hw-pragmas",
    "hw-fix16",
    "sw-f32-stream",
    "hw-fix16-stream",
    "sw-f32?sigma=3.5",
    "hw-fix16-stream?sigma=5&radius=12",
    "sw-f32-stream?pipeline=reinhard",
    "hw-fix16?pipeline=histeq",
    "sw-f32-stream?pipeline=filmic",
    "hw-fix16?schedule=auto",
    "sw-f32?pipeline=basedetail&schedule=auto",
];

/// Colour-managed presets served on RGB input.
pub const THUMB_COLOUR_SPECS: [&str; 4] = [
    "sw-f32?pipeline=hsv-reinhard",
    "hw-fix16-stream?pipeline=aces",
    "sw-f32-stream?pipeline=pq-out",
    "hw-fix16?pipeline=filmic&exposure=4",
];

/// Offered load of the open loop, in jobs per second. Capacity measured at
/// saturation was ~300 jobs/s with two usable cores and roughly half that
/// with one; the host swings between the two, and at half of capacity
/// queueing turned those swings into 30–40% run-to-run latency spread.
/// At this rate the service stays below half load on either.
pub const THUMBS_RATE: f64 = 50.0;

/// Every `THUMBS_INTERACTIVE_EVERY`-th arrival is interactive (25%).
const THUMBS_INTERACTIVE_EVERY: usize = 4;

/// Every `THUMBS_DEADLINE_EVERY`-th arrival carries a deadline (20%), with
/// a budget generous enough that admission must never shed it here.
const THUMBS_DEADLINE_EVERY: usize = 5;
pub const THUMBS_DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

/// The thumbs job shapes: each scalar spec on luminance or raw input
/// (alternating), each colour preset on RGB.
fn thumb_templates() -> Vec<Template> {
    let scalar = THUMB_SCALAR_SPECS.iter().enumerate().map(|(i, &spec)| {
        let kind = if i % 2 == 0 {
            InputKind::Luminance
        } else {
            InputKind::Raw
        };
        (kind, spec)
    });
    let colour = THUMB_COLOUR_SPECS
        .iter()
        .map(|&spec| (InputKind::Rgb, spec));
    scalar.chain(colour).collect()
}

/// Sizes a template serves. The Fix16 engines (names with `fix16`) run
/// 300–700 ns/px, 5–20× the float paths: at every size they made the whole
/// top decile of latencies, and its spread between runs exceeded 0.25. On
/// the two small sizes they are exercised cheaply, like the two-pass
/// engines, and the tail stays a mixture.
fn thumb_sizes(spec: &str) -> std::ops::Range<usize> {
    if spec.contains("fix16") {
        0..2
    } else {
        0..THUMB_SIZES.len()
    }
}

/// Every (template, size) combination as a job, each with a fixed frame
/// slot so a combination always costs the same.
fn thumb_combos() -> Vec<ThumbJob> {
    let templates = thumb_templates();
    let mut combos = Vec::new();
    for (t, &(kind, spec)) in templates.iter().enumerate() {
        for size in thumb_sizes(spec) {
            combos.push(ThumbJob {
                due_s: 0.0,
                kind,
                spec,
                size,
                frame: (t + size) % THUMB_FRAMES,
                priority: Priority::Batch,
                deadline: false,
            });
        }
    }
    combos
}

/// Draws job shapes from shuffled decks of every combination, so each
/// run serves them in (nearly) equal shares: with independent draws the
/// few jobs per combination in a run left the p90 to chance.
struct Deck<'a> {
    combos: &'a [ThumbJob],
    order: Vec<usize>,
}

impl Deck<'_> {
    fn draw(&mut self, rng: &mut Rng) -> ThumbJob {
        if self.order.is_empty() {
            self.order = (0..self.combos.len()).collect();
            rng.shuffle(&mut self.order);
        }
        self.combos[self.order.pop().expect("refilled above")]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThumbJob {
    /// Seconds after the start of the window the job is due.
    pub due_s: f64,
    pub kind: InputKind,
    pub spec: &'static str,
    pub size: usize,
    pub frame: usize,
    pub priority: Priority,
    pub deadline: bool,
}

impl ThumbJob {
    /// What identifies the output: equal keys must give equal payloads.
    pub fn key(&self) -> (InputKind, &'static str, usize, usize) {
        (self.kind, self.spec, self.size, self.frame)
    }
}

#[derive(Debug, Clone)]
pub struct ThumbInputs {
    /// `[size][frame]`.
    pub luminance: Vec<Vec<Arc<LuminanceImage>>>,
    pub raw: Vec<Vec<Arc<Vec<f32>>>>,
    pub rgb: Vec<Vec<Arc<RgbImage>>>,
    pub jobs: Vec<ThumbJob>,
}

impl ThumbInputs {
    /// Frames and a Poisson arrival schedule covering `seconds`.
    pub fn generate(seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let mut luminance = Vec::new();
        let mut raw = Vec::new();
        let mut rgb = Vec::new();
        // Scenes are fixed per (size, frame) slot and only their noise
        // comes from the seed, so every seed serves the same cost mix.
        let scene = |size: usize, frame: usize| {
            SceneKind::ALL[(size * THUMB_FRAMES + frame) % SceneKind::ALL.len()]
        };
        for (size, &(w, h)) in THUMB_SIZES.iter().enumerate() {
            let lum: Vec<Arc<LuminanceImage>> = (0..THUMB_FRAMES)
                .map(|frame| Arc::new(scene(size, frame).generate(w, h, rng.next_u64())))
                .collect();
            raw.push(
                lum.iter()
                    .map(|image| Arc::new(image.pixels().to_vec()))
                    .collect(),
            );
            luminance.push(lum);
            rgb.push(
                (0..THUMB_FRAMES)
                    .map(|frame| {
                        let scene = scene(size, frame + 2);
                        Arc::new(scene.generate_rgb(w, h, rng.next_u64()))
                    })
                    .collect(),
            );
        }
        let combos = thumb_combos();
        let mut interactive = Deck {
            combos: &combos,
            order: Vec::new(),
        };
        let mut batch = Deck {
            combos: &combos,
            order: Vec::new(),
        };
        let mut jobs = Vec::new();
        let mut due_s = 0.0;
        loop {
            due_s += -(1.0 - rng.unit()).ln() / THUMBS_RATE;
            if due_s >= seconds {
                break;
            }
            let index = jobs.len();
            let job = if index % THUMBS_INTERACTIVE_EVERY == 0 {
                ThumbJob {
                    priority: Priority::Interactive,
                    ..interactive.draw(&mut rng)
                }
            } else {
                batch.draw(&mut rng)
            };
            jobs.push(ThumbJob {
                due_s,
                deadline: index % THUMBS_DEADLINE_EVERY == 1,
                ..job
            });
        }
        ThumbInputs {
            luminance,
            raw,
            rgb,
            jobs,
        }
    }

    /// The request a job submits, without its serving options (priority,
    /// deadline) — exactly what a direct execution must reproduce.
    pub fn request(&self, job: &ThumbJob) -> JobRequest {
        let (w, h) = THUMB_SIZES[job.size];
        match job.kind {
            InputKind::Luminance => {
                JobRequest::luminance(Arc::clone(&self.luminance[job.size][job.frame]))
            }
            InputKind::Raw => {
                JobRequest::raw_luminance(w, h, Arc::clone(&self.raw[job.size][job.frame]))
            }
            InputKind::Rgb => JobRequest::rgb(Arc::clone(&self.rgb[job.size][job.frame])),
        }
        .on_backend(job.spec)
    }

    pub fn pixels(&self, job: &ThumbJob) -> u64 {
        let (w, h) = THUMB_SIZES[job.size];
        (w * h) as u64
    }

    /// One job of every (template, size) combination, for the set-up
    /// warm-up.
    pub fn warm_set(&self) -> Vec<ThumbJob> {
        thumb_combos()
    }
}

// ----------------------------------------------------------------- video

pub const VIDEO_SIZE: (usize, usize) = (640, 360);

/// Frames per stream sequence; streams loop over them.
pub const VIDEO_FRAMES: usize = 32;

/// Frames each stream keeps in flight.
pub const VIDEO_IN_FLIGHT: usize = 2;

#[derive(Debug, Clone)]
pub struct StreamInputs {
    pub spec: &'static str,
    /// The spec without its temporal keys: what a single frame executes.
    pub base_spec: &'static str,
    pub priority: Priority,
    pub frames: Vec<Arc<LuminanceImage>>,
}

impl StreamInputs {
    pub fn frame(&self, index: usize) -> &LuminanceImage {
        &self.frames[index % self.frames.len()]
    }
}

#[derive(Debug, Clone)]
pub struct VideoInputs {
    pub streams: Vec<StreamInputs>,
}

impl VideoInputs {
    pub fn generate(seed: u64) -> Self {
        Self::generate_sized(seed, VIDEO_SIZE, VIDEO_FRAMES)
    }

    fn generate_sized(seed: u64, (w, h): (usize, usize), frames: usize) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut sequence = |kind: SequenceKind, scene: SceneKind| {
            let sequence = FrameSequence::new(kind, scene, w, h, frames, rng.next_u64());
            sequence.frames().map(Arc::new).collect::<Vec<_>>()
        };
        // Fixed scenes, seeded noise: every seed streams the same cost mix.
        let ramp = sequence(
            SequenceKind::RampWithCut {
                decades: 3.0,
                cut_at: frames / 2,
            },
            SceneKind::WindowInDarkRoom,
        );
        let pan = sequence(
            SequenceKind::Pan {
                pixels_per_frame: 6,
            },
            SceneKind::MemorialComposite,
        );
        VideoInputs {
            streams: vec![
                StreamInputs {
                    spec: "sw-f32-stream?temporal=leaky&tau=4",
                    base_spec: "sw-f32-stream",
                    priority: Priority::Interactive,
                    frames: ramp,
                },
                StreamInputs {
                    spec: "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
                    base_spec: "hw-fix16?pipeline=reinhard&schedule=auto",
                    priority: Priority::Batch,
                    frames: pan,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_uniform_enough() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(9, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut rng = Rng::new(9, 1);
        let mean = (0..10_000).map(|_| rng.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
        assert_ne!(Rng::new(9, 1).next_u64(), Rng::new(9, 2).next_u64());
    }

    #[test]
    fn thumbs_repeat_exactly_for_a_seed_and_change_with_it() {
        let a = ThumbInputs::generate(5, 2.0);
        let b = ThumbInputs::generate(5, 2.0);
        assert_eq!(a.jobs, b.jobs, "arrivals, specs, sizes, priorities");
        assert_eq!(a.luminance, b.luminance);
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.rgb, b.rgb);
        let c = ThumbInputs::generate(6, 2.0);
        assert_ne!(a.jobs, c.jobs);
        // The schedule is an open-loop Poisson stream at the stated rate.
        let n = a.jobs.len() as f64;
        assert!(
            (n - 2.0 * THUMBS_RATE).abs() < 5.0 * n.sqrt(),
            "{n} arrivals"
        );
        assert!(a.jobs.windows(2).all(|w| w[0].due_s < w[1].due_s));
        let interactive = a
            .jobs
            .iter()
            .filter(|j| j.priority == Priority::Interactive)
            .count();
        assert!(interactive > 0 && interactive < a.jobs.len() / 2);
    }

    #[test]
    fn stills_repeat_exactly_for_a_seed_in_balanced_blocks() {
        let a = StillsInputs::generate_sized(11, (32, 24));
        let b = StillsInputs::generate_sized(11, (32, 24));
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.luminance, b.luminance);
        assert_eq!(a.rgb, b.rgb);
        let c = StillsInputs::generate_sized(12, (32, 24));
        assert_ne!(a.clients, c.clients);
        assert_ne!(a.luminance, c.luminance);
        for jobs in &a.clients {
            let block: usize = STILLS_MIX.iter().map(|&(_, frames)| frames).sum();
            for (k, shapes) in jobs.chunks(block).enumerate() {
                for (template, &(_, frames)) in STILLS_MIX.iter().enumerate() {
                    let mut served: Vec<usize> = shapes
                        .iter()
                        .filter(|job| job.template == template)
                        .map(|job| job.frame)
                        .collect();
                    served.sort_unstable();
                    let mut expected: Vec<usize> = (0..frames)
                        .map(|i| (k * frames + i) % SceneKind::ALL.len())
                        .collect();
                    expected.sort_unstable();
                    assert_eq!(served, expected, "block {k} serves spec {template}'s share");
                }
            }
        }
    }

    #[test]
    fn video_frames_repeat_exactly_for_a_seed() {
        let a = VideoInputs::generate_sized(3, (40, 24), 6);
        let b = VideoInputs::generate_sized(3, (40, 24), 6);
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(x.frames, y.frames);
            assert_eq!(x.frames.len(), 6);
        }
        let c = VideoInputs::generate_sized(4, (40, 24), 6);
        assert_ne!(a.streams[0].frames, c.streams[0].frames);
    }
}
