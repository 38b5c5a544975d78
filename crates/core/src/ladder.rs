//! Graceful strategy degradation: one rung list, one walker.
//!
//! A single flaky placement, routing or movement strategy should cost a
//! request its *optimality*, never its *answer*. Every degradation
//! order in the workspace is a list of [`Rung`]s walked by
//! [`Walker::walk`]: the fixed-coupler chain ([`FallbackLadder`]), the
//! DPQA backend's movement → SWAP demotion, each portfolio lane (a walk
//! of one rung) and the portfolio's last resort. The walker runs the
//! rungs in order until one produces a result that also passes
//! independent verification ([`crate::verify`]). A rung is demoted on:
//!
//! * an error from its compile step (including injected failpoint
//!   errors),
//! * a **panic** anywhere in that step (caught with `catch_unwind`;
//!   everything a rung touches is freshly owned by it, so unwinding
//!   cannot leave shared state behind), or
//! * a [`VerifyError`](crate::verify::VerifyError) from
//!   post-compilation verification.
//!
//! The one exception is [`MapError::Unsatisfiable`] on a rung with
//! [`Rung::unsatisfiable_ends_walk`] set (every SWAP rung): that is a
//! property of the (degraded) device, not of the strategy, so the walk
//! stops immediately rather than burning every rung on an impossible
//! job. Movement rungs only demote on it — an over-full array is a
//! property of movement physics, and SWAP routing over the same
//! interaction-radius device may still succeed.
//!
//! The walker stamps the serving rung into the outcome's report
//! ([`MapReport::fallback_rung`](crate::mapper::MapReport::fallback_rung)
//! = 0 for the requested pipeline), together with whether verification
//! passed, so callers and cached results always name the pipeline that
//! actually produced them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qcs_circuit::circuit::Circuit;
use qcs_topology::device::Device;

use crate::config::MapperConfig;
use crate::mapper::{MapError, MapOutcome};
use crate::verify::{verify_outcome, VerifyConfig};

/// Why one rung was demoted.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderAttempt {
    /// The rung's placer name.
    pub placer: String,
    /// The rung's router name.
    pub router: String,
    /// What went wrong, as a one-line message.
    pub error: String,
}

/// Error raised when every rung failed (or the job is unsatisfiable on
/// the device, which no rung can fix).
#[derive(Debug, Clone, PartialEq)]
pub struct LadderError {
    /// Every demoted rung, in walk order.
    pub attempts: Vec<LadderAttempt>,
    /// True when the walk stopped early on an unsatisfiable device.
    pub unsatisfiable: bool,
}

impl std::fmt::Display for LadderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.unsatisfiable {
            write!(f, "job unsatisfiable on device: ")?;
        } else {
            write!(f, "all {} ladder rungs failed: ", self.attempts.len())?;
        }
        for (i, attempt) in self.attempts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(
                f,
                "[{}] {}/{}: {}",
                i, attempt.placer, attempt.router, attempt.error
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for LadderError {}

/// Why a rung's compile step failed. The message is what the
/// [`LadderAttempt`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum RungError {
    /// A mapping-pipeline error; [`MapError::Unsatisfiable`] may end the
    /// walk.
    Map(MapError),
    /// Any other failure (an unknown strategy name, a decomposition or
    /// placement error outside the [`Mapper`](crate::mapper::Mapper)),
    /// as its one-line message.
    Other(String),
}

impl RungError {
    /// Wraps a failure that is not a [`MapError`] by its message.
    pub fn other(error: impl std::fmt::Display) -> Self {
        RungError::Other(error.to_string())
    }
}

impl From<MapError> for RungError {
    fn from(error: MapError) -> Self {
        RungError::Map(error)
    }
}

/// A rung's compile step: maps the circuit on the device, returning the
/// outcome plus a backend-specific side product (the DPQA move
/// schedule; `()` everywhere else). Any error demotes the rung.
pub type CompileStep<'a, T> =
    Box<dyn FnOnce(&Circuit, &Device) -> Result<(MapOutcome, T), RungError> + 'a>;

/// One strategy on a degradation order.
pub struct Rung<'a, T = ()> {
    /// The (placer, router) pair a demotion of this rung is reported
    /// under (`dpqa-move` is the router of movement rungs).
    pub label: MapperConfig,
    /// How the walker verifies this rung's result (`move_swaps` on
    /// movement rungs).
    pub verify: VerifyConfig,
    /// Whether [`MapError::Unsatisfiable`] ends the walk (SWAP rungs)
    /// or only demotes this rung (movement rungs).
    pub unsatisfiable_ends_walk: bool,
    /// The compile step.
    pub compile: CompileStep<'a, T>,
}

impl<T: Default> Rung<'_, T> {
    /// A SWAP-routing rung running `config`'s pipeline, verified with
    /// defaults. An unknown strategy name demotes the rung.
    pub fn swap(config: MapperConfig) -> Self {
        Rung {
            label: config.clone(),
            verify: VerifyConfig::default(),
            unsatisfiable_ends_walk: true,
            compile: Box::new(move |circuit, device| {
                let mapper = config.build().map_err(RungError::other)?;
                Ok((mapper.map(circuit, device)?, T::default()))
            }),
        }
    }
}

/// The one executor of every degradation order. It owns the attempt
/// list a [`LadderError`] reports: [`Walker::demote`] records failures
/// that happened before the walk (discarded portfolio lanes), and
/// [`Walker::walk`] appends one attempt per demoted rung.
#[derive(Debug, Default)]
pub struct Walker {
    attempts: Vec<LadderAttempt>,
}

impl Walker {
    /// Records a demotion of the `label` pipeline that happened outside
    /// this walk; it precedes the walk's own attempts in the error.
    pub fn demote(&mut self, label: MapperConfig, error: String) {
        self.attempts.push(LadderAttempt {
            placer: label.placer,
            router: label.router,
            error,
        });
    }

    /// Walks `rungs` in order on `device` and returns the first result
    /// that compiles *and* verifies, with its report's `fallback_rung`
    /// (the rung's position in `rungs`) and `verified` stamped.
    ///
    /// # Errors
    ///
    /// [`LadderError`] when every rung was demoted, or a rung that
    /// [ends the walk](Rung::unsatisfiable_ends_walk) found the job
    /// unsatisfiable on the device.
    pub fn walk<'a, T>(
        mut self,
        circuit: &Circuit,
        device: &Device,
        rungs: impl IntoIterator<Item = Rung<'a, T>>,
    ) -> Result<(MapOutcome, T), LadderError> {
        let mut unsatisfiable = false;
        for (index, rung) in rungs.into_iter().enumerate() {
            let compile = rung.compile;
            // Panic isolation per rung: a panicking strategy (bug or
            // armed failpoint) demotes to the next rung.
            let (error, ends_walk) =
                match catch_unwind(AssertUnwindSafe(|| compile(circuit, device))) {
                    Ok(Ok((mut outcome, side))) => {
                        match verify_outcome(circuit, &outcome, device, &rung.verify) {
                            Ok(_) => {
                                outcome.report.fallback_rung = index;
                                outcome.report.verified = true;
                                return Ok((outcome, side));
                            }
                            Err(e) => (format!("verification failed: {e}"), false),
                        }
                    }
                    Ok(Err(RungError::Map(MapError::Unsatisfiable(reason))))
                        if rung.unsatisfiable_ends_walk =>
                    {
                        (reason.to_string(), true)
                    }
                    Ok(Err(RungError::Map(e))) => (e.to_string(), false),
                    Ok(Err(RungError::Other(message))) => (message, false),
                    Err(panic) => (
                        format!("panicked: {}", panic_message(panic.as_ref())),
                        false,
                    ),
                };
            self.demote(rung.label, error);
            if ends_walk {
                unsatisfiable = true;
                break;
            }
        }
        Err(LadderError {
            attempts: self.attempts,
            unsatisfiable,
        })
    }
}

/// An ordered chain of SWAP-routing pipelines, walked by [`Walker`].
///
/// # Examples
///
/// ```
/// use qcs_core::config::MapperConfig;
/// use qcs_core::ladder::FallbackLadder;
/// use qcs_topology::surface::surface7;
///
/// let ladder = FallbackLadder::standard(MapperConfig::default());
/// let qft = qcs_workloads::qft::qft(5)?;
/// let outcome = ladder.map(&qft, &surface7())?;
/// assert_eq!(outcome.report.fallback_rung, 0); // primary rung served
/// assert!(outcome.report.verified);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackLadder {
    rungs: Vec<MapperConfig>,
}

impl FallbackLadder {
    /// The default degradation chain after a primary config: SABRE
    /// placement, then subgraph placement, then the trivial pipeline —
    /// strictly decreasing in sophistication, strictly increasing in
    /// robustness. Rungs equal to an earlier one are dropped.
    pub fn standard(primary: MapperConfig) -> Self {
        let mut rungs = vec![
            primary,
            MapperConfig::new("sabre", "lookahead"),
            MapperConfig::new("subgraph", "lookahead"),
            MapperConfig::new("trivial", "trivial"),
        ];
        let mut seen: Vec<MapperConfig> = Vec::new();
        rungs.retain(|r| {
            if seen.contains(r) {
                false
            } else {
                seen.push(r.clone());
                true
            }
        });
        FallbackLadder { rungs }
    }

    /// A ladder with exactly the given rungs (must be non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty.
    pub fn new(rungs: Vec<MapperConfig>) -> Self {
        assert!(!rungs.is_empty(), "a ladder needs at least one rung");
        FallbackLadder { rungs }
    }

    /// The configured rungs, in order.
    pub fn rungs(&self) -> &[MapperConfig] {
        &self.rungs
    }

    /// The chain as walkable SWAP rungs ([`Rung::swap`]).
    pub fn swap_rungs<'a, T: Default>(&self) -> Vec<Rung<'a, T>> {
        self.rungs.iter().cloned().map(Rung::swap).collect()
    }

    /// Maps `circuit` on `device` through the first rung that succeeds
    /// *and* verifies. The returned outcome's report records the serving
    /// rung and verification status.
    ///
    /// # Errors
    ///
    /// [`LadderError`] when every rung failed, a rung found the job
    /// unsatisfiable on the device, or a rung's config is invalid.
    pub fn map(&self, circuit: &Circuit, device: &Device) -> Result<MapOutcome, LadderError> {
        Walker::default()
            .walk(circuit, device, self.swap_rungs())
            .map(|(outcome, ())| outcome)
    }
}

/// Renders a caught panic payload into a one-line message.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::surface::surface7;

    fn ghz5() -> Circuit {
        qcs_workloads::ghz::ghz_chain(5).unwrap()
    }

    #[test]
    fn standard_ladder_dedups_rungs() {
        let ladder = FallbackLadder::standard(MapperConfig::new("sabre", "lookahead"));
        assert_eq!(ladder.rungs().len(), 3);
        assert_eq!(ladder.rungs()[0], MapperConfig::new("sabre", "lookahead"));
        let ladder = FallbackLadder::standard(MapperConfig::default());
        assert_eq!(ladder.rungs().len(), 4);
    }

    #[test]
    fn primary_rung_serves_when_healthy() {
        let ladder = FallbackLadder::standard(MapperConfig::default());
        let outcome = ladder.map(&ghz5(), &surface7()).unwrap();
        assert_eq!(outcome.report.fallback_rung, 0);
        assert_eq!(outcome.report.placer, "graph-similarity");
        assert!(outcome.report.verified);
    }

    #[test]
    fn bad_primary_config_demotes_to_next_rung() {
        let ladder = FallbackLadder::new(vec![
            MapperConfig::new("warp", "lookahead"),
            MapperConfig::new("trivial", "trivial"),
        ]);
        let outcome = ladder.map(&ghz5(), &surface7()).unwrap();
        assert_eq!(outcome.report.fallback_rung, 1);
        assert_eq!(outcome.report.placer, "trivial");
    }

    #[test]
    fn exhausted_ladder_reports_every_attempt() {
        let ladder = FallbackLadder::new(vec![
            MapperConfig::new("warp", "lookahead"),
            MapperConfig::new("trivial", "phase-conduit"),
        ]);
        let err = ladder.map(&ghz5(), &surface7()).unwrap_err();
        assert!(!err.unsatisfiable);
        assert_eq!(err.attempts.len(), 2);
        let message = err.to_string();
        assert!(message.contains("warp"), "{message}");
        assert!(message.contains("phase-conduit"), "{message}");
    }

    #[test]
    fn too_wide_circuit_is_unsatisfiable_like_failure_not_a_panic() {
        // 9 qubits on surface-7: every rung's placer errors. The ladder
        // must exhaust cleanly (width is a Place error, not
        // Unsatisfiable, so all rungs are tried).
        let wide = Circuit::new(9);
        let ladder = FallbackLadder::standard(MapperConfig::default());
        let err = ladder.map(&wide, &surface7()).unwrap_err();
        assert_eq!(err.attempts.len(), ladder.rungs().len());
    }
}
