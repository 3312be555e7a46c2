//! Fault-injected network substrate: link models, per-link latency and
//! loss, and the peer connection-state lifecycle.
//!
//! The paper evaluates its incentive scheme on an *ideal* network — every
//! allocated transfer completes deterministically at full bandwidth. This
//! module supplies the spec-selectable [`LinkModel`]s that relax that
//! assumption: per-link latency (uniform or lognormal-bucketed), iid
//! message loss, and a regional two-cluster topology with an inter-cluster
//! penalty. The download phase consults the model when applying bandwidth
//! grants, so a lossy or high-latency network delays and fails transfers
//! without touching the allocator or the collect-stage RNG stream.
//!
//! Determinism contract:
//!
//! * Per-link **latency** is a pure hash of `(seed, downloader, source)` —
//!   no RNG stream is consumed, so a link's latency is stable across the
//!   whole run and across worker-thread counts.
//! * **Loss** draws and **connection-state transitions** come from the
//!   dedicated `net_rng` stream owned by the simulation world, never from
//!   the step RNG — the ideal model draws *nothing*, which is what keeps
//!   `network = ideal` bit-identical to the pre-fault engine.

use crate::netsim::peer::{PeerId, PeerRegistry};
use rand::Rng;
use std::fmt;

/// Bounded retry budget per transfer: a transfer whose grant is lost more
/// than this many times is failed permanently (slot refunded to the free
/// list; the downloader re-draws a source next step).
pub(crate) const MAX_TRANSFER_RETRIES: u32 = 3;

/// Exponential-backoff base, in steps: after the `n`-th lost grant the
/// transfer holds off for `BACKOFF_BASE_STEPS << (n - 1)` steps before
/// requesting bandwidth again.
pub(crate) const BACKOFF_BASE_STEPS: u64 = 2;

/// Steps without received bytes after which a transfer times out, is
/// cancelled and refunds its slot (the downloader re-draws next step).
pub(crate) const TRANSFER_TIMEOUT_STEPS: u64 = 16;

/// Lognormal octile bucketing: the standard-normal quantile midpoints of
/// the eight octiles, so hashed links land on a latency distribution that
/// matches the configured `exp(μ + σ·z)` shape without consuming RNG.
const OCTILE_Z: [f64; 8] = [-1.534, -0.887, -0.489, -0.157, 0.157, 0.489, 0.887, 1.534];

/// A typed error from [`LinkModel::from_label`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LinkModelError {
    /// The model name before the first comma is not a known link model.
    UnknownModel {
        /// The unrecognised name.
        name: String,
    },
    /// The model name is known but its parameter list is malformed.
    InvalidParameter {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for LinkModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkModelError::UnknownModel { name } => {
                write!(f, "unknown network model `{name}`")
            }
            LinkModelError::InvalidParameter { message } => {
                write!(f, "invalid network model parameter: {message}")
            }
        }
    }
}

impl std::error::Error for LinkModelError {}

/// Per-step connection-state transition probabilities of a non-ideal link
/// model, drawn from the dedicated `net_rng` stream (one draw per peer per
/// step, online or not, so the draw count never depends on network state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConnectionRates {
    /// P(Connected → Degraded) per step.
    pub(crate) degrade: f64,
    /// P(Degraded → Connected) per step.
    pub(crate) recover: f64,
    /// P(Degraded → Disconnected) per step.
    pub(crate) drop: f64,
    /// P(Disconnected → Connected) per step.
    pub(crate) reconnect: f64,
}

/// Link-quality state of a peer's network attachment, driven by
/// [`step_connections`] under a non-ideal [`LinkModel`].
///
/// `Connected` is the only state an ideal network ever sees. `Degraded`
/// doubles the loss probability of grants served by the peer;
/// `Disconnected` removes the peer from the upload-source pool entirely
/// (its downloaders re-draw from the remaining sources instead of
/// stalling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ConnectionState {
    /// Fully reachable (the only state under `network = ideal`).
    #[default]
    Connected,
    /// Reachable but flaky: grants from this peer fail twice as often.
    Degraded,
    /// Unreachable: excluded from the upload-source pool until it
    /// reconnects.
    Disconnected,
}

/// A spec-selectable model of link behaviour, consulted by the download
/// phase when applying bandwidth grants.
///
/// The text form is `<model>[,param…]` (see `LinkModel::label` /
/// `LinkModel::from_label`); `ideal` is the default and is guaranteed to
/// be bit-identical to the engine without any fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LinkModel {
    /// No latency, no loss, no connection churn — the paper's network.
    #[default]
    Ideal,
    /// Per-link latency drawn uniformly (via a link hash) from
    /// `min..=max` steps; no loss.
    UniformLatency {
        /// Minimum per-link latency in steps.
        min: u64,
        /// Maximum per-link latency in steps (≥ `min`).
        max: u64,
    },
    /// Per-link latency `exp(μ + σ·z)` steps with `z` hashed onto the
    /// eight octile midpoints of the standard normal; no loss.
    LognormalLatency {
        /// Log-space location parameter μ.
        mu: f64,
        /// Log-space scale parameter σ (> 0).
        sigma: f64,
    },
    /// Independent, identically distributed loss: every applied grant is
    /// lost with probability `loss`; no latency.
    IidLoss {
        /// Per-grant loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Two regional clusters (peer-id halves): intra-cluster links are
    /// ideal, inter-cluster links pay `penalty` steps of latency and lose
    /// grants with probability `loss`.
    TwoClusters {
        /// Inter-cluster per-grant loss probability in `[0, 1]`.
        loss: f64,
        /// Inter-cluster latency penalty in steps.
        penalty: u64,
    },
}

/// SplitMix64-style avalanche over `(seed, downloader, source)`: the pure
/// per-link hash behind latency bucketing. Stable for the whole run.
fn link_hash(seed: u64, downloader: PeerId, source: PeerId) -> u64 {
    let mut x = seed ^ ((u64::from(downloader.0) << 32) | u64::from(source.0));
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The regional cluster of a peer under [`LinkModel::TwoClusters`]: the
/// lower half of the id range is cluster 0, the upper half cluster 1.
pub(crate) fn cluster_of(peer: PeerId, population: usize) -> usize {
    usize::from(peer.index() * 2 >= population)
}

impl LinkModel {
    /// Whether this is the ideal (fault-free) model. The download phase
    /// skips every fault branch — and `net_rng` is never drawn from — when
    /// this returns `true`.
    pub(crate) fn is_ideal(&self) -> bool {
        matches!(self, LinkModel::Ideal)
    }

    /// Stable text form: `<model>[,param…]`, parseable by
    /// [`LinkModel::from_label`] and round-tripping exactly (parameters
    /// render via the shortest round-trippable float form).
    pub(crate) fn label(&self) -> String {
        match self {
            LinkModel::Ideal => "ideal".to_string(),
            LinkModel::UniformLatency { min, max } => format!("uniform,{min},{max}"),
            LinkModel::LognormalLatency { mu, sigma } => format!("lognormal,{mu},{sigma}"),
            LinkModel::IidLoss { loss } => format!("lossy,{loss}"),
            LinkModel::TwoClusters { loss, penalty } => format!("clustered,{loss},{penalty}"),
        }
    }

    /// Parses a model from its [`LinkModel::label`] form.
    pub(crate) fn from_label(text: &str) -> Result<Self, LinkModelError> {
        let mut parts = text.split(',').map(str::trim);
        let name = parts.next().unwrap_or("");
        let params: Vec<&str> = parts.collect();
        let arity = |n: usize| -> Result<(), LinkModelError> {
            if params.len() == n {
                Ok(())
            } else {
                Err(LinkModelError::InvalidParameter {
                    message: format!("`{name}` takes {n} parameter(s), got {}", params.len()),
                })
            }
        };
        fn num<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, LinkModelError> {
            value.parse().map_err(|_| LinkModelError::InvalidParameter {
                message: format!("`{name}`: cannot parse `{value}`"),
            })
        }
        match name {
            "ideal" => {
                arity(0)?;
                Ok(LinkModel::Ideal)
            }
            "uniform" => {
                arity(2)?;
                Ok(LinkModel::UniformLatency {
                    min: num(name, params[0])?,
                    max: num(name, params[1])?,
                })
            }
            "lognormal" => {
                arity(2)?;
                Ok(LinkModel::LognormalLatency {
                    mu: num(name, params[0])?,
                    sigma: num(name, params[1])?,
                })
            }
            "lossy" => {
                arity(1)?;
                Ok(LinkModel::IidLoss {
                    loss: num(name, params[0])?,
                })
            }
            "clustered" => {
                arity(2)?;
                Ok(LinkModel::TwoClusters {
                    loss: num(name, params[0])?,
                    penalty: num(name, params[1])?,
                })
            }
            other => Err(LinkModelError::UnknownModel {
                name: other.to_string(),
            }),
        }
    }

    /// Validates the model parameters; the message names what is out of
    /// range.
    pub(crate) fn check(&self) -> Result<(), String> {
        match *self {
            LinkModel::Ideal => Ok(()),
            LinkModel::UniformLatency { min, max } => {
                if max < min {
                    Err("uniform latency needs max >= min".to_string())
                } else {
                    Ok(())
                }
            }
            LinkModel::LognormalLatency { mu, sigma } => {
                if !mu.is_finite() {
                    Err("lognormal mu must be finite".to_string())
                } else if !(sigma > 0.0 && sigma.is_finite()) {
                    Err("lognormal sigma must be positive and finite".to_string())
                } else {
                    Ok(())
                }
            }
            LinkModel::IidLoss { loss } => {
                if (0.0..=1.0).contains(&loss) {
                    Ok(())
                } else {
                    Err("loss probability must lie in [0, 1]".to_string())
                }
            }
            LinkModel::TwoClusters { loss, penalty } => {
                if !(0.0..=1.0).contains(&loss) {
                    Err("inter-cluster loss probability must lie in [0, 1]".to_string())
                } else if penalty == 0 {
                    Err("inter-cluster penalty must be at least 1 step".to_string())
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Per-link latency in steps: how long after a transfer starts its
    /// grants begin to arrive. A pure function of `(seed, downloader,
    /// source)` — no RNG stream is consumed, so the latency of a link is
    /// stable for the whole run.
    pub(crate) fn link_latency(
        &self,
        seed: u64,
        downloader: PeerId,
        source: PeerId,
        population: usize,
    ) -> u64 {
        match *self {
            LinkModel::Ideal | LinkModel::IidLoss { .. } => 0,
            LinkModel::UniformLatency { min, max } => {
                let h = link_hash(seed, downloader, source);
                min + h % (max - min + 1)
            }
            LinkModel::LognormalLatency { mu, sigma } => {
                let h = link_hash(seed, downloader, source);
                let z = OCTILE_Z[(h % 8) as usize];
                (mu + sigma * z).exp().round().max(0.0) as u64
            }
            LinkModel::TwoClusters { penalty, .. } => {
                if cluster_of(downloader, population) == cluster_of(source, population) {
                    0
                } else {
                    penalty
                }
            }
        }
    }

    /// Per-grant loss probability of the `downloader ← source` link
    /// (before the degraded-source doubling the download phase applies).
    pub(crate) fn link_loss(&self, downloader: PeerId, source: PeerId, population: usize) -> f64 {
        match *self {
            LinkModel::Ideal
            | LinkModel::UniformLatency { .. }
            | LinkModel::LognormalLatency { .. } => 0.0,
            LinkModel::IidLoss { loss } => loss,
            LinkModel::TwoClusters { loss, .. } => {
                if cluster_of(downloader, population) == cluster_of(source, population) {
                    0.0
                } else {
                    loss
                }
            }
        }
    }

    /// Connection-state transition rates of this model, or `None` for the
    /// ideal model (whose lifecycle never runs — every peer stays
    /// [`ConnectionState::Connected`] and `net_rng` is untouched).
    pub(crate) fn connection_rates(&self) -> Option<ConnectionRates> {
        match *self {
            LinkModel::Ideal => None,
            LinkModel::UniformLatency { .. } | LinkModel::LognormalLatency { .. } => {
                Some(ConnectionRates {
                    degrade: 0.01,
                    recover: 0.3,
                    drop: 0.002,
                    reconnect: 0.25,
                })
            }
            LinkModel::IidLoss { loss } | LinkModel::TwoClusters { loss, .. } => {
                Some(ConnectionRates {
                    degrade: (0.01 + loss * 0.2).min(1.0),
                    recover: 0.3,
                    drop: (loss * 0.05).min(0.05),
                    reconnect: 0.25,
                })
            }
        }
    }
}

/// Advances every peer's connection state by one step under `rates`,
/// drawing exactly one uniform variate per registry slot from `rng`
/// (online or not, connected or not), so the stream position after a step
/// depends only on the population — never on the network's current state.
///
/// Returns `(degraded, disconnected)` counts over online peers, for
/// observers and benches.
pub(crate) fn step_connections<R: Rng + ?Sized>(
    peers: &mut PeerRegistry,
    rates: &ConnectionRates,
    rng: &mut R,
) -> (usize, usize) {
    let mut degraded = 0usize;
    let mut disconnected = 0usize;
    for index in 0..peers.len() {
        let u: f64 = rng.gen();
        let peer = peers.peer_mut(PeerId(index as u32));
        peer.connection = match peer.connection {
            ConnectionState::Connected => {
                if u < rates.degrade {
                    ConnectionState::Degraded
                } else {
                    ConnectionState::Connected
                }
            }
            ConnectionState::Degraded => {
                if u < rates.recover {
                    ConnectionState::Connected
                } else if u < rates.recover + rates.drop {
                    ConnectionState::Disconnected
                } else {
                    ConnectionState::Degraded
                }
            }
            ConnectionState::Disconnected => {
                if u < rates.reconnect {
                    ConnectionState::Connected
                } else {
                    ConnectionState::Disconnected
                }
            }
        };
        if peer.online {
            match peer.connection {
                ConnectionState::Degraded => degraded += 1,
                ConnectionState::Disconnected => disconnected += 1,
                ConnectionState::Connected => {}
            }
        }
    }
    (degraded, disconnected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels_round_trip_for_every_model() {
        let models = [
            LinkModel::Ideal,
            LinkModel::UniformLatency { min: 1, max: 5 },
            LinkModel::LognormalLatency {
                mu: 1.2,
                sigma: 0.5,
            },
            LinkModel::IidLoss { loss: 0.05 },
            LinkModel::TwoClusters {
                loss: 0.1,
                penalty: 4,
            },
        ];
        for model in models {
            let label = model.label();
            assert_eq!(LinkModel::from_label(&label), Ok(model), "label: {label}");
            assert!(model.check().is_ok(), "label: {label}");
        }
    }

    #[test]
    fn unknown_model_names_are_typed_errors() {
        assert_eq!(
            LinkModel::from_label("wormhole,3"),
            Err(LinkModelError::UnknownModel {
                name: "wormhole".to_string()
            })
        );
        let rendered = LinkModel::from_label("wormhole").unwrap_err().to_string();
        assert!(rendered.contains("unknown network model `wormhole`"));
    }

    #[test]
    fn malformed_parameters_are_rejected() {
        assert!(matches!(
            LinkModel::from_label("lossy"),
            Err(LinkModelError::InvalidParameter { .. })
        ));
        assert!(matches!(
            LinkModel::from_label("lossy,0.05,9"),
            Err(LinkModelError::InvalidParameter { .. })
        ));
        assert!(matches!(
            LinkModel::from_label("uniform,a,b"),
            Err(LinkModelError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn out_of_range_parameters_fail_check() {
        assert!(LinkModel::UniformLatency { min: 5, max: 1 }
            .check()
            .is_err());
        assert!(LinkModel::LognormalLatency {
            mu: 0.0,
            sigma: 0.0
        }
        .check()
        .is_err());
        assert!(LinkModel::IidLoss { loss: 1.5 }.check().is_err());
        assert!(LinkModel::TwoClusters {
            loss: 0.1,
            penalty: 0
        }
        .check()
        .is_err());
    }

    #[test]
    fn ideal_model_is_faultless() {
        let m = LinkModel::Ideal;
        assert!(m.is_ideal());
        assert_eq!(m.link_latency(7, PeerId(0), PeerId(1), 100), 0);
        assert_eq!(m.link_loss(PeerId(0), PeerId(1), 100), 0.0);
        assert!(m.connection_rates().is_none());
    }

    #[test]
    fn uniform_latency_is_stable_and_in_range() {
        let m = LinkModel::UniformLatency { min: 2, max: 6 };
        for d in 0..20u32 {
            for s in 0..20u32 {
                let l = m.link_latency(42, PeerId(d), PeerId(s), 40);
                assert!((2..=6).contains(&l), "latency {l} out of range");
                assert_eq!(l, m.link_latency(42, PeerId(d), PeerId(s), 40));
            }
        }
        // Different links see different latencies (the hash avalanches).
        let distinct: std::collections::HashSet<u64> = (0..20u32)
            .map(|s| m.link_latency(42, PeerId(0), PeerId(s), 40))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn lognormal_latency_follows_the_octile_buckets() {
        let m = LinkModel::LognormalLatency {
            mu: 1.5,
            sigma: 0.5,
        };
        let lo = (1.5f64 + 0.5 * OCTILE_Z[0]).exp().round() as u64;
        let hi = (1.5f64 + 0.5 * OCTILE_Z[7]).exp().round() as u64;
        for s in 0..50u32 {
            let l = m.link_latency(7, PeerId(99), PeerId(s), 100);
            assert!((lo..=hi).contains(&l), "latency {l} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn clustered_links_penalise_inter_cluster_traffic_only() {
        let m = LinkModel::TwoClusters {
            loss: 0.2,
            penalty: 5,
        };
        // Peers 0..50 are cluster 0, peers 50..100 cluster 1.
        assert_eq!(m.link_latency(1, PeerId(3), PeerId(7), 100), 0);
        assert_eq!(m.link_latency(1, PeerId(3), PeerId(70), 100), 5);
        assert_eq!(m.link_loss(PeerId(3), PeerId(7), 100), 0.0);
        assert_eq!(m.link_loss(PeerId(3), PeerId(70), 100), 0.2);
        assert_eq!(cluster_of(PeerId(49), 100), 0);
        assert_eq!(cluster_of(PeerId(50), 100), 1);
    }

    #[test]
    fn connection_lifecycle_reaches_every_state_and_is_deterministic() {
        let mut peers = PeerRegistry::with_population(200);
        let rates = ConnectionRates {
            degrade: 0.3,
            recover: 0.2,
            drop: 0.2,
            reconnect: 0.2,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen_degraded = false;
        let mut seen_disconnected = false;
        for _ in 0..50 {
            let (deg, disc) = step_connections(&mut peers, &rates, &mut rng);
            seen_degraded |= deg > 0;
            seen_disconnected |= disc > 0;
        }
        assert!(seen_degraded && seen_disconnected);
        // Same seed reproduces the same final states.
        let mut peers_b = PeerRegistry::with_population(200);
        let mut rng_b = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            step_connections(&mut peers_b, &rates, &mut rng_b);
        }
        for p in 0..200u32 {
            assert_eq!(
                peers.peer(PeerId(p)).connection,
                peers_b.peer(PeerId(p)).connection
            );
        }
    }

    #[test]
    fn connection_rates_scale_with_loss() {
        let mild = LinkModel::IidLoss { loss: 0.01 }
            .connection_rates()
            .unwrap();
        let harsh = LinkModel::IidLoss { loss: 0.5 }.connection_rates().unwrap();
        assert!(harsh.degrade > mild.degrade);
        assert!(harsh.drop >= mild.drop);
        let latency_only = LinkModel::UniformLatency { min: 1, max: 3 }
            .connection_rates()
            .unwrap();
        assert!(latency_only.degrade > 0.0);
    }
}
