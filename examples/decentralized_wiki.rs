//! A decentralized wiki, built from the substrate modules directly.
//!
//! The paper's motivating application is a P2P collaboration network in
//! which peers store articles, download them from each other, edit them and
//! vote on edits. This example wires the substrate APIs together by hand —
//! without the simulation engine — to show how a downstream application
//! would use them: articles are placed by the DHT rule, downloads compete for a
//! source's bandwidth under reputation-proportional allocation, an edit goes
//! through a weighted vote, and a vandal ends up punished.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example decentralized_wiki
//! ```

use collabsim_workspace::collabsim::netsim::article::{ArticleRegistry, EditKind};
use collabsim_workspace::collabsim::netsim::bandwidth::{
    AllocScratch, AllocationPolicy, BandwidthAllocator, DownloadRequest,
};
use collabsim_workspace::collabsim::netsim::dht::{self, DhtKey};
use collabsim_workspace::collabsim::netsim::peer::{PeerId, PeerRegistry};
use collabsim_workspace::collabsim::netsim::storage::ArticleStore;
use collabsim_workspace::collabsim::reputation::contribution::SharingAction;
use collabsim_workspace::collabsim::reputation::ledger::ReputationLedger;
use collabsim_workspace::collabsim::reputation::punishment::PunishmentPolicy;
use collabsim_workspace::collabsim::reputation::service::{ServiceDifferentiation, ServiceParams};

fn main() {
    // --- the network ------------------------------------------------------
    let population = 8;
    let mut peers = PeerRegistry::with_population(population);
    let mut ledger = ReputationLedger::with_paper_defaults(population);
    let service = ServiceDifferentiation::new(ServiceParams::default(), 0.05);
    let punishment = PunishmentPolicy::default();
    let mut articles = ArticleRegistry::new();
    // The store is sized for its universe up front: this wiki has one
    // article.
    let mut store = ArticleStore::new(population, 1);
    let members: Vec<(PeerId, DhtKey)> = (0..population as u32)
        .map(|p| (PeerId(p), DhtKey::for_peer(PeerId(p))))
        .collect();

    // --- peer 0 publishes an article ---------------------------------------
    // Replicas go to the 3 peers whose keys are XOR-closest to the article's
    // key, the placement rule the simulation seeds its articles with.
    let author = PeerId(0);
    let article = articles.create_article(author, 0);
    let key = DhtKey::for_article(article.0);
    let mut nearest = [(0, PeerId(0)); 3];
    let mut holders = vec![author];
    holders.extend(
        dht::closest_into(key, &members, &mut nearest)
            .iter()
            .map(|&(_, p)| p),
    );
    holders.sort();
    holders.dedup();
    for &holder in &holders {
        store.add_replica(holder, article);
    }
    println!("article {article} published by {author}; replicas on {holders:?}");

    // --- contributions raise reputation -------------------------------------
    // Peers 0 and 1 share storage and bandwidth; peer 7 free-rides.
    for (peer, articles_shared, bandwidth) in [(0usize, 20.0, 1.0), (1, 10.0, 0.5), (7, 0.0, 0.0)] {
        ledger.record_sharing(
            peer,
            &SharingAction {
                shared_articles: articles_shared,
                shared_bandwidth: bandwidth,
            },
        );
    }
    for p in [0usize, 1, 7] {
        println!(
            "peer {p}: sharing reputation R_S = {:.3}",
            ledger.sharing_reputation(p)
        );
    }

    // --- competing downloads: reputation-proportional bandwidth -------------
    peers.peer_mut(PeerId(0)).set_shared_upload_fraction(1.0);
    let allocator = BandwidthAllocator::new(AllocationPolicy::WeightedByReputation);
    let requests: Vec<DownloadRequest> = [1usize, 7]
        .iter()
        .map(|&p| DownloadRequest {
            downloader: PeerId(p as u32),
            sharing_reputation: ledger.sharing_reputation(p),
            download_capacity: 1.0,
            uploaded_to_source: 0.0,
        })
        .collect();
    let mut allocations = Vec::new();
    allocator.allocate_into(
        peers.peer(PeerId(0)).offered_upload(),
        &requests,
        &mut AllocScratch::default(),
        &mut allocations,
    );
    for allocation in allocations {
        println!(
            "download from peer#0: {} receives {:.2} of the upload bandwidth",
            allocation.downloader, allocation.bandwidth
        );
    }

    // --- a constructive edit goes through a weighted vote -------------------
    let editor = PeerId(1);
    let edit = articles
        .submit_edit(article, editor, EditKind::Constructive)
        .expect("no pending edit");
    let voters = [PeerId(0), PeerId(2), PeerId(7)];
    let reputations: Vec<f64> = voters
        .iter()
        .map(|v| ledger.editing_reputation(v.index()))
        .collect();
    let mut powers = Vec::new();
    service.voting_powers_into(&reputations, &mut powers);
    // Peers 0 and 2 support the edit, the vandal (7) votes against.
    let in_favor = powers[0] + powers[1];
    let against = powers[2];
    let accepted =
        service.edit_accepted(ledger.editing_reputation(editor.index()), in_favor, against);
    articles.resolve_edit(edit, accepted);
    println!(
        "constructive edit by {editor}: in-favour power {:.2}, against {:.2} → {}",
        in_favor,
        against,
        if accepted { "ACCEPTED" } else { "declined" }
    );
    punishment.on_unsuccessful_vote(&mut ledger, 7);

    // --- a vandal is punished ------------------------------------------------
    for round in 0..4 {
        if let Some(bad_edit) = articles.submit_edit(article, PeerId(7), EditKind::Destructive) {
            articles.resolve_edit(bad_edit, false);
            let outcome = punishment.on_declined_edit(&mut ledger, 7);
            println!("vandal edit #{round} declined → punishment outcome: {outcome:?}");
        }
    }
    println!(
        "vandal can still edit: {}   vandal reputation after punishment: {:.3}",
        ledger.can_edit(7),
        ledger.sharing_reputation(7)
    );
    println!(
        "article quality after the episode: {:.2}",
        articles.article(article).quality()
    );
}
