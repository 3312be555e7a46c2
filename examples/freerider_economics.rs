//! The economics behind the incentive scheme.
//!
//! Without service differentiation, free-riding is a peer's best response:
//! it receives the same service as a contributor without paying the cost
//! (the paper's Section-II argument). This example evaluates the paper's
//! own sharing utility `U_S` from `collabsim::gametheory` to show
//! that reputation-based service differentiation makes sharing pay, even
//! without the direct repeated relations tit-for-tat needs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example freerider_economics
//! ```

use collabsim_workspace::collabsim::gametheory::utility::{SharingObservation, UtilityModel};

fn main() {
    let model = UtilityModel::default();
    println!("== the paper's sharing utility U_S under service differentiation ==");
    let scenarios = [
        ("full sharer, high reputation share", 1.0, 0.6, 1.0, 1.0),
        ("full sharer, no differentiation", 1.0, 0.33, 1.0, 1.0),
        ("free-rider, no differentiation", 1.0, 0.33, 0.0, 0.0),
        ("free-rider, differentiated down", 1.0, 0.05, 0.0, 0.0),
    ];
    for (label, source_upload, share, disk, upload) in scenarios {
        let utility = model.sharing_utility(&SharingObservation {
            source_upload,
            bandwidth_share: share,
            disk_share: disk,
            own_upload: upload,
        });
        println!("{label:<38} U_S = {utility:+.2}");
    }
    println!();
    println!(
        "→ with differentiation the contributor's utility exceeds the free-rider's ({:+.2} vs {:+.2});",
        model.sharing_utility(&SharingObservation {
            source_upload: 1.0,
            bandwidth_share: 0.6,
            disk_share: 1.0,
            own_upload: 1.0
        }),
        model.sharing_utility(&SharingObservation {
            source_upload: 1.0,
            bandwidth_share: 0.05,
            disk_share: 0.0,
            own_upload: 0.0
        })
    );
    println!("  without it, free-riding wins — exactly the gap the reputation scheme closes.");
}
