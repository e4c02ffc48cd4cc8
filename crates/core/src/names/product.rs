//! Product-name candidate detection (§4.2).
//!
//! After vendor consolidation, likely matching product names *under the
//! same vendor* are flagged by: (1) identical tokenisation after splitting
//! on white space and special characters (`internet-explorer` /
//! `internet_explorer`), (2) abbreviation by first characters
//! (`internet_explorer` / `ie`), and (3) small edit distance — human typos
//! such as `tbe_banner_engine` / `the_banner_engine`. The paper notes edit
//! distance needs verification because near-identical products can be
//! genuinely different (`ucs-e160dp-m1_firmware` / `ucs-e140dp-m1_firmware`),
//! which is why candidates carry their heuristic for the verifier.
//!
//! On the blocked engine each vendor is one block: its product set is
//! interned into a per-vendor [`NameTable`], the three heuristics propose
//! ordered id triples, and the per-vendor sweeps fan out over `minipar`,
//! concatenating in ascending vendor order. Because ids follow name order
//! and vendors are the outermost sort key, that concatenation reproduces
//! the historical global sort + dedup byte for byte (`names::legacy` keeps
//! the old sweep as the oracle that pins this).

use std::collections::{BTreeMap, BTreeSet};

use nvd_model::prelude::{Database, ProductName, VendorName};
use textkit::distance::levenshtein_at_most;
use textkit::tokenize::{abbreviation, name_components};

use super::mapping::NameMapping;
use super::table::NameTable;

/// Which heuristic proposed a product pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProductHeuristic {
    /// Same tokens once separators are normalised.
    TokenEquivalent,
    /// One name abbreviates the other's token initials.
    Abbreviation,
    /// Levenshtein distance 1 (suspected typo).
    EditDistance,
}

/// A flagged product-name pair under one (consolidated) vendor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductCandidate {
    /// The owning vendor (post vendor-consolidation).
    pub vendor: VendorName,
    /// Lexicographically smaller product name.
    pub a: ProductName,
    /// Lexicographically larger product name.
    pub b: ProductName,
    /// The proposing heuristic.
    pub heuristic: ProductHeuristic,
}

/// Digit-difference guard for the edit-distance heuristic: names that
/// differ in a digit are usually genuinely different models/versions
/// (the paper's cisco firmware example).
///
/// The comparison is positional — character `i` of `a` against character
/// `i` of `b` — which is only meaningful when the two byte streams align
/// one-to-one. The equal-length precondition below makes that explicit:
/// unequal lengths mean an insertion/deletion typo, where positional digit
/// comparison would be misaligned, so the guard never fires and the pair
/// stays eligible for flagging.
fn differs_only_in_digit(a: &str, b: &str) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.bytes()
        .zip(b.bytes())
        .any(|(x, y)| x != y && x.is_ascii_digit() && y.is_ascii_digit())
}

/// Vendors with more products than this skip the quadratic edit-distance
/// heuristic (per-vendor product counts are normally small).
const EDIT_SWEEP_CAP: usize = 600;

/// Finds candidate product pairs under each vendor after applying the
/// vendor mapping: the cached sweep over a fresh cache.
pub fn find_product_candidates(db: &Database, mapping: &NameMapping) -> Vec<ProductCandidate> {
    find_product_candidates_cached(db, mapping, &mut ProductSweepCache::default())
}

/// Carry-over state for [`find_product_candidates_cached`]: each vendor's
/// last sweep, keyed on the consolidated vendor name, together with the
/// product set it was computed over.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProductSweepCache {
    vendors: BTreeMap<VendorName, ProductSweepEntry>,
}

#[derive(Debug, Clone)]
struct ProductSweepEntry {
    products: BTreeSet<ProductName>,
    candidates: Vec<ProductCandidate>,
}

/// [`find_product_candidates`] with per-vendor carry-over: a vendor is
/// re-swept only when its consolidated product set differs from the one
/// its cached sweep saw.
///
/// Each sweep is pure in `(vendor, products)`, so stale vendors fan out
/// over `minipar` and the result concatenates per vendor in ascending
/// order; output is bit-identical to a cold sweep at every `NVD_JOBS`.
pub(crate) fn find_product_candidates_cached(
    db: &Database,
    mapping: &NameMapping,
    cache: &mut ProductSweepCache,
) -> Vec<ProductCandidate> {
    // Products per consolidated vendor.
    let mut products: BTreeMap<VendorName, BTreeSet<ProductName>> = BTreeMap::new();
    for entry in db.iter() {
        for cpe in &entry.affected {
            let vendor = mapping.resolve_vendor(&cpe.vendor).clone();
            products
                .entry(vendor)
                .or_default()
                .insert(cpe.product.clone());
        }
    }

    // Vendors that left the universe are evicted, so afterwards the cache
    // holds exactly the current vendors, in ascending order.
    cache
        .vendors
        .retain(|vendor, _| products.contains_key(vendor));
    let stale: Vec<(VendorName, BTreeSet<ProductName>)> = products
        .into_iter()
        .filter(|(vendor, names)| {
            cache
                .vendors
                .get(vendor)
                .is_none_or(|e| &e.products != names)
        })
        .collect();
    let swept = minipar::par_map(&stale, |(vendor, names)| sweep_vendor(vendor, names));
    for ((vendor, products), candidates) in stale.into_iter().zip(swept) {
        cache.vendors.insert(
            vendor,
            ProductSweepEntry {
                products,
                candidates,
            },
        );
    }

    cache
        .vendors
        .values()
        .flat_map(|e| e.candidates.iter().cloned())
        .collect()
}

/// The per-vendor block: interns the vendor's products and runs the three
/// heuristics over dense ids, returning candidates in `(a, b)` order with
/// the strongest heuristic kept on duplicates.
fn sweep_vendor(vendor: &VendorName, names: &BTreeSet<ProductName>) -> Vec<ProductCandidate> {
    let table = NameTable::from_sorted_iter(names.iter());
    let n = table.len() as u32;
    let mut pairs: Vec<(u32, u32, ProductHeuristic)> = Vec::new();

    // Heuristic 1: identical token sequences.
    let mut by_tokens: BTreeMap<Vec<String>, Vec<u32>> = BTreeMap::new();
    for (id, p) in table.enumerate() {
        by_tokens
            .entry(name_components(p.as_str()))
            .or_default()
            .push(id);
    }
    for group in by_tokens.into_values() {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                pairs.push((a, b, ProductHeuristic::TokenEquivalent));
            }
        }
    }

    // Heuristic 2: abbreviation of token initials, resolved through the
    // table's binary search (the legacy sweep re-scanned the name list on
    // every hit).
    for (id, p) in table.enumerate() {
        if let Some(abbrev) = abbreviation(p.as_str()) {
            if abbrev.len() >= 2 && abbrev != p.as_str() {
                if let Some(other) = table.id_of(&abbrev) {
                    pairs.push((id.min(other), id.max(other), ProductHeuristic::Abbreviation));
                }
            }
        }
    }

    // Heuristic 3: edit distance 1 (typos), guarded against digit-only
    // differences; quadratic within the vendor, which is fine because
    // per-vendor product counts are small. The banded early-exit
    // Levenshtein stops scanning once the distance band exceeds 1.
    if table.len() <= EDIT_SWEEP_CAP {
        for a in 0..n {
            let sa = table.name(a).as_str();
            for b in a + 1..n {
                let sb = table.name(b).as_str();
                if sa.len().abs_diff(sb.len()) > 1 {
                    continue;
                }
                if differs_only_in_digit(sa, sb) {
                    continue;
                }
                if levenshtein_at_most(sa, sb, 1) == Some(1) {
                    pairs.push((a, b, ProductHeuristic::EditDistance));
                }
            }
        }
    }

    // A pair can be proposed by several heuristics; keep the strongest
    // (TokenEquivalent < Abbreviation < EditDistance by enum order — token
    // equivalence is the most reliable, so sort and dedupe keeps it).
    pairs.sort_unstable();
    pairs.dedup_by_key(|&mut (a, b, _)| (a, b));
    pairs
        .into_iter()
        .map(|(a, b, heuristic)| ProductCandidate {
            vendor: vendor.clone(),
            a: table.name(a).clone(),
            b: table.name(b).clone(),
            heuristic,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::prelude::*;

    fn db_with(cpes: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (i, (v, p)) in cpes.iter().enumerate() {
            let id: CveId = format!("CVE-2017-{:04}", i + 1).parse().unwrap();
            let mut e = CveEntry::new(id, "2017-01-01".parse().unwrap());
            e.affected.push(CpeName::application(*v, *p));
            db.push(e);
        }
        db
    }

    fn find(db: &Database) -> Vec<ProductCandidate> {
        find_product_candidates(db, &NameMapping::default())
    }

    #[test]
    fn finds_separator_variants() {
        let db = db_with(&[
            ("microsoft", "internet_explorer"),
            ("microsoft", "internet-explorer"),
        ]);
        let cands = find(&db);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].heuristic, ProductHeuristic::TokenEquivalent);
    }

    #[test]
    fn finds_abbreviation() {
        let db = db_with(&[("microsoft", "internet_explorer"), ("microsoft", "ie")]);
        let cands = find(&db);
        assert!(cands
            .iter()
            .any(|c| c.heuristic == ProductHeuristic::Abbreviation));
    }

    #[test]
    fn finds_typo_pair() {
        let db = db_with(&[
            ("nativesolutions", "tbe_banner_engine"),
            ("nativesolutions", "the_banner_engine"),
        ]);
        let cands = find(&db);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].heuristic, ProductHeuristic::EditDistance);
    }

    #[test]
    fn digit_difference_is_not_flagged() {
        // The paper's example: different cisco firmware models at edit
        // distance 1 must NOT be merged.
        let db = db_with(&[
            ("cisco", "ucs-e160dp-m1_firmware"),
            ("cisco", "ucs-e140dp-m1_firmware"),
        ]);
        let cands = find(&db);
        assert!(cands.is_empty(), "{cands:?}");
    }

    #[test]
    fn digit_guard_is_positional() {
        // The paper's cisco firmware regression: equal lengths, one digit
        // position differs → guard fires.
        assert!(differs_only_in_digit(
            "ucs-e160dp-m1_firmware",
            "ucs-e140dp-m1_firmware"
        ));
        // Letter typo at equal length → no digit difference.
        assert!(!differs_only_in_digit(
            "tbe_banner_engine",
            "the_banner_engine"
        ));
        // Unequal lengths (insertion typo) never trip the guard, even with
        // digits present — positional comparison would be misaligned.
        assert!(!differs_only_in_digit("router2", "router21"));
        assert!(!differs_only_in_digit("e160", "e1600"));
        // Identical names have no differing position at all.
        assert!(!differs_only_in_digit("e160", "e160"));
    }

    #[test]
    fn different_vendors_are_not_compared() {
        let db = db_with(&[("avg", "antivirus"), ("avast", "antivirus!")]);
        let cands = find(&db);
        assert!(cands.is_empty(), "{cands:?}");
    }

    #[test]
    fn vendor_mapping_brings_products_together() {
        // anti-virus is recorded under alias vendor "avg_technologies";
        // after vendor consolidation both product spellings are under avg.
        let db = db_with(&[("avg", "antivirus"), ("avg_technologies", "anti-virus")]);
        let mut mapping = NameMapping::default();
        mapping
            .vendor
            .insert(VendorName::new("avg_technologies"), VendorName::new("avg"));
        let cands = find_product_candidates(&db, &mapping);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].vendor.as_str(), "avg");
    }

    #[test]
    fn blocked_sweep_matches_legacy_replica_on_mixed_fixture() {
        // All three heuristics fire, across several vendors, with a pair
        // (internet_explorer / internet-explorer) proposed by both token
        // equivalence and edit distance so the dedup tiebreak is exercised.
        let db = db_with(&[
            ("microsoft", "internet_explorer"),
            ("microsoft", "internet-explorer"),
            ("microsoft", "ie"),
            ("nativesolutions", "tbe_banner_engine"),
            ("nativesolutions", "the_banner_engine"),
            ("cisco", "ucs-e160dp-m1_firmware"),
            ("cisco", "ucs-e140dp-m1_firmware"),
            ("avg", "antivirus"),
            ("avg", "anti-virus"),
        ]);
        let mapping = NameMapping::default();
        let blocked = find_product_candidates(&db, &mapping);
        let legacy = crate::names::legacy::find_product_candidates_legacy(&db, &mapping);
        assert_eq!(blocked, legacy);
    }

    #[test]
    fn cached_sweep_matches_cold_sweep_across_deltas() {
        let mut db = db_with(&[
            ("microsoft", "internet_explorer"),
            ("microsoft", "internet-explorer"),
            ("avg", "antivirus"),
        ]);
        let mapping = NameMapping::default();
        let mut cache = ProductSweepCache::default();
        assert_eq!(
            find_product_candidates_cached(&db, &mapping, &mut cache),
            find(&db)
        );
        // Grow one vendor's product set; the other vendor's sweep is reused.
        let id: CveId = "CVE-2018-0001".parse().unwrap();
        let mut e = CveEntry::new(id, "2018-01-01".parse().unwrap());
        e.affected.push(CpeName::application("avg", "anti-virus"));
        db.push(e);
        assert_eq!(
            find_product_candidates_cached(&db, &mapping, &mut cache),
            find(&db)
        );
    }

    #[test]
    fn blocked_sweep_is_bit_identical_across_job_counts() {
        let db = db_with(&[
            ("microsoft", "internet_explorer"),
            ("microsoft", "internet-explorer"),
            ("microsoft", "ie"),
            ("nativesolutions", "tbe_banner_engine"),
            ("nativesolutions", "the_banner_engine"),
            ("avg", "antivirus"),
            ("avg", "anti-virus"),
        ]);
        let mapping = NameMapping::default();
        let serial = minipar::with_jobs(1, || find_product_candidates(&db, &mapping));
        let wide = minipar::with_jobs(4, || find_product_candidates(&db, &mapping));
        assert_eq!(serial, wide);
    }
}
