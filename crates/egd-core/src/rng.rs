//! Deterministic, splittable random number streams.
//!
//! The paper's simulation has randomness in many places (initial strategies,
//! the Nature Agent's pairwise-comparison and mutation decisions, execution
//! noise, mixed strategies). To keep large parallel runs *reproducible
//! regardless of thread count or rank placement*, every component draws from
//! its own PCG stream derived from a global seed and a logical stream
//! identifier — never from a shared global generator.

use rand_pcg::Pcg64Mcg;

/// The random number generator used throughout the workspace.
///
/// `Pcg64Mcg` is small (16 bytes of state), fast, and its output is stable
/// across platforms and library versions, unlike `StdRng`.
pub(crate) type SimRng = Pcg64Mcg;

/// Logical purposes a random stream can serve. Mixed into the stream key so
/// that, e.g., the Nature Agent and the noise generator of generation 17 never
/// share a stream even if their numeric ids collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Initial strategy assignment for an SSet.
    InitialStrategy,
    /// The Nature Agent's evolutionary decisions (PC selection, mutation).
    Nature,
    /// Execution noise / mixed-strategy sampling during game play.
    GamePlay,
    /// Strategy generation for mutations.
    Mutation,
    /// Anything else (tests, tools).
    Auxiliary,
}

impl StreamKind {
    /// Stable numeric tag mixed into the stream key — public so checkpoint
    /// snapshots can record which logical stream a saved RNG position
    /// belongs to.
    pub(crate) fn tag(self) -> u64 {
        match self {
            StreamKind::InitialStrategy => 0x01,
            StreamKind::Nature => 0x02,
            StreamKind::GamePlay => 0x03,
            StreamKind::Mutation => 0x04,
            StreamKind::Auxiliary => 0x05,
        }
    }
}

/// SplitMix64 finaliser: a high-quality 64-bit mixing function (a bijection
/// on `u64`) used to derive independent stream seeds from `(seed, kind, id)`
/// triples, and the keeper weights of [`crate::grouping`].
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a deterministic 128-bit seed for a logical stream.
fn stream_seed(seed: u64, kind: StreamKind, id: u64) -> u128 {
    let a = splitmix64(seed ^ splitmix64(kind.tag()));
    let b = splitmix64(a ^ splitmix64(id));
    let c = splitmix64(b.wrapping_add(0xA076_1D64_78BD_642F));
    ((b as u128) << 64) | (c as u128)
}

/// Creates the RNG for logical stream `(kind, id)` under the global `seed`.
///
/// Streams with different `(kind, id)` keys are statistically independent;
/// the same key always yields the same sequence.
pub fn stream(seed: u64, kind: StreamKind, id: u64) -> SimRng {
    Pcg64Mcg::new(stream_state(seed, kind, id))
}

/// The raw 128-bit generator state of [`stream`], for callers that want to
/// derive many stream states in one pass (batch kernels fill a seed buffer
/// first, then construct the generators) — `Pcg64Mcg::new` on this value is
/// exactly the RNG [`stream`] returns.
fn stream_state(seed: u64, kind: StreamKind, id: u64) -> u128 {
    stream_seed(seed, kind, id) | 1
}

/// Creates the RNG for a `(kind, id, sub_id)` triple, used when a component
/// needs one stream per generation or per rank (e.g. game-play noise of SSet
/// `id` in generation `sub_id`).
pub fn substream(seed: u64, kind: StreamKind, id: u64, sub_id: u64) -> SimRng {
    Pcg64Mcg::new(substream_state(seed, kind, id, sub_id))
}

/// The raw 128-bit generator state of [`substream`] (see `stream_state`).
pub fn substream_state(seed: u64, kind: StreamKind, id: u64, sub_id: u64) -> u128 {
    let mixed = splitmix64(id ^ splitmix64(sub_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    stream_state(seed, kind, mixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_key_same_sequence() {
        let mut a = stream(42, StreamKind::Nature, 7);
        let mut b = stream(42, StreamKind::Nature, 7);
        let xs: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_ids_give_different_sequences() {
        let mut a = stream(42, StreamKind::Nature, 7);
        let mut b = stream(42, StreamKind::Nature, 8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_kinds_give_different_sequences() {
        let mut a = stream(42, StreamKind::Nature, 7);
        let mut b = stream(42, StreamKind::GamePlay, 7);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let mut a = stream(1, StreamKind::Nature, 7);
        let mut b = stream(2, StreamKind::Nature, 7);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn substreams_differ_per_subid() {
        let mut a = substream(42, StreamKind::GamePlay, 3, 0);
        let mut b = substream(42, StreamKind::GamePlay, 3, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn raw_states_match_stream_constructors() {
        let mut a = stream(42, StreamKind::GamePlay, 3);
        let mut b = Pcg64Mcg::new(stream_state(42, StreamKind::GamePlay, 3));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let mut c = substream(42, StreamKind::GamePlay, 3, 9);
        let mut d = Pcg64Mcg::new(substream_state(42, StreamKind::GamePlay, 3, 9));
        assert_eq!(c.gen::<u64>(), d.gen::<u64>());
    }

    #[test]
    fn uniform01_in_range() {
        let mut rng = stream(9, StreamKind::Auxiliary, 0);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform01_is_roughly_uniform() {
        let mut rng = stream(11, StreamKind::Auxiliary, 0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
        assert_ne!(splitmix64(0), splitmix64(1));
    }
}
