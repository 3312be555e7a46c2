//! The phase registry: named [`StepPhase`] factories.
//!
//! A [`PhaseRegistry`] maps stable phase names to factories producing
//! boxed [`StepPhase`]s for a given configuration. The standard registry
//! knows the eight built-in phases; downstream crates, benches and tests
//! [`register`](PhaseRegistry::register) their own and then resolve a
//! [`ScenarioSpec`](crate::spec::ScenarioSpec)'s ordered phase list into a
//! [`StepPipeline`] — so a custom workload never edits the engine, it
//! registers a phase and names it in a spec.

use super::{
    ChurnPhase, DownloadPhase, EditVotePhase, LearningPhase, PropagationPhase, SelectionPhase,
    SharingPhase, StepPhase, StepPipeline, UtilityPhase,
};
use crate::adversary::AdversaryPhase;
use crate::config::SimulationConfig;
use crate::spec::SpecError;

/// A factory producing one boxed phase for a configuration.
pub type PhaseFactory = Box<dyn Fn(&SimulationConfig) -> Box<dyn StepPhase> + Send + Sync>;

/// A name → [`StepPhase`]-factory table resolving spec phase lists into
/// pipelines.
pub struct PhaseRegistry {
    entries: Vec<(String, PhaseFactory)>,
}

impl PhaseRegistry {
    /// An empty registry (no names resolve).
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The standard registry: the six Section-IV protocol phases plus the
    /// optional `propagation`, `churn` and `adversary` phases, under their
    /// stable names (`selection`, `sharing`, `download`, `edit-vote`,
    /// `utility`, `learning`, `propagation`, `churn`, `adversary`).
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        registry
            .register("selection", |_| Box::new(SelectionPhase))
            .register("sharing", |_| Box::new(SharingPhase))
            .register("download", |_| Box::new(DownloadPhase))
            .register("edit-vote", |_| Box::new(EditVotePhase))
            .register("utility", |_| Box::new(UtilityPhase))
            .register("learning", |_| Box::new(LearningPhase))
            .register("propagation", |_| Box::new(PropagationPhase))
            .register("churn", |_| Box::new(ChurnPhase))
            .register("adversary", |_| Box::new(AdversaryPhase));
        registry
    }

    /// Registers (or replaces — latest registration wins) a named phase
    /// factory. The factory receives the spec's configuration, so a phase
    /// can pre-compute per-run state.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F) -> &mut Self
    where
        F: Fn(&SimulationConfig) -> Box<dyn StepPhase> + Send + Sync + 'static,
    {
        let name = name.into();
        self.entries.retain(|(existing, _)| *existing != name);
        self.entries.push((name, Box::new(factory)));
        self
    }

    /// Whether `name` resolves.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of registered phases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Instantiates one phase by name.
    pub fn instantiate(
        &self,
        name: &str,
        config: &SimulationConfig,
    ) -> Result<Box<dyn StepPhase>, SpecError> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, factory)| factory(config))
            .ok_or_else(|| SpecError::UnknownPhase {
                name: name.to_string(),
            })
    }

    /// Resolves an ordered phase-name list into a pipeline.
    pub fn build_pipeline<S: AsRef<str>>(
        &self,
        names: &[S],
        config: &SimulationConfig,
    ) -> Result<StepPipeline, SpecError> {
        if names.is_empty() {
            return Err(SpecError::EmptyPhaseList);
        }
        let mut pipeline = StepPipeline::new();
        for name in names {
            pipeline.push_boxed(self.instantiate(name.as_ref(), config)?);
        }
        Ok(pipeline)
    }
}

impl std::fmt::Debug for PhaseRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl Default for PhaseRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StepContext;
    use crate::world::SimWorld;

    #[test]
    fn standard_registry_knows_all_builtin_phases() {
        let registry = PhaseRegistry::standard();
        assert_eq!(registry.len(), 9);
        for name in [
            "selection",
            "sharing",
            "download",
            "edit-vote",
            "utility",
            "learning",
            "propagation",
            "churn",
            "adversary",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        assert!(!registry.contains("no-such-phase"));
    }

    #[test]
    fn build_pipeline_preserves_declared_order() {
        let registry = PhaseRegistry::standard();
        let config = SimulationConfig::default();
        let pipeline = registry
            .build_pipeline(&["learning", "selection", "churn"], &config)
            .unwrap();
        assert_eq!(
            pipeline.phase_names(),
            vec!["learning", "selection", "churn"]
        );
    }

    #[test]
    fn unknown_names_and_empty_lists_are_typed_errors() {
        let registry = PhaseRegistry::standard();
        let config = SimulationConfig::default();
        let err = registry
            .build_pipeline(&["selection", "wormhole"], &config)
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownPhase {
                name: "wormhole".to_string()
            }
        );
        let err = registry
            .build_pipeline(&Vec::<&str>::new(), &config)
            .unwrap_err();
        assert_eq!(err, SpecError::EmptyPhaseList);
    }

    #[test]
    fn custom_registrations_replace_and_execute() {
        struct MarkerPhase;
        impl StepPhase for MarkerPhase {
            fn name(&self) -> &'static str {
                "marker"
            }
            fn execute(&self, world: &mut SimWorld, _ctx: &mut StepContext) {
                world.propagation_runs += 100;
            }
        }
        let mut registry = PhaseRegistry::standard();
        registry.register("marker", |_| Box::new(MarkerPhase));
        assert_eq!(registry.len(), 10);
        // Latest registration wins.
        registry.register("marker", |_| Box::new(MarkerPhase));
        assert_eq!(registry.len(), 10);

        let config = SimulationConfig {
            population: 8,
            initial_articles: 4,
            ..Default::default()
        };
        let pipeline = registry.build_pipeline(&["marker"], &config).unwrap();
        let mut world = SimWorld::with_adversary_registry(
            config,
            &crate::adversary::AdversaryRegistry::standard(),
        )
        .unwrap();
        pipeline.run_step(&mut world, 1.0);
        assert_eq!(world.propagation_runs, 100);
    }
}
