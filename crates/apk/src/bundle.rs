//! Android App Bundles with Play Asset Delivery.
//!
//! §3.1: bundles "offer the possibility of downloading assets on demand, as
//! needed for a given device" — including, in principle, device-specific
//! models (e.g. an NPU variant). §4.2 measures that this capability is
//! unused for DNNs; to measure that honestly the crawler must fetch and scan
//! asset packs, including packs with device targeting conditions.
//!
//! A bundle is modelled as a ZIP whose top-level entries are module
//! archives: `base.apk` plus zero or more `<pack>.assetpack` ZIPs, each with
//! an optional device-targeting manifest line.

use crate::zip::{ZipArchive, ZipWriter};
use crate::{ApkError, Result};

/// Delivery mode of an asset pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered with the app install.
    InstallTime,
    /// Downloaded on first demand.
    OnDemand,
}

/// One asset pack inside a bundle.
#[derive(Debug, Clone)]
pub struct AssetPack {
    /// Pack name.
    pub name: String,
    /// Delivery mode.
    pub delivery: Delivery,
    /// Device targeting condition (e.g. `"sdk>=31"`, `"soc=qcom"`), empty
    /// for untargeted packs.
    pub targeting: String,
    /// Files in the pack.
    pub files: Vec<(String, Vec<u8>)>,
}

/// Builder for an app bundle.
#[derive(Debug)]
pub struct BundleBuilder {
    base_apk: Vec<u8>,
    packs: Vec<AssetPack>,
}

impl BundleBuilder {
    /// Start from a serialised base APK.
    pub fn new(base_apk: Vec<u8>) -> Self {
        BundleBuilder {
            base_apk,
            packs: Vec::new(),
        }
    }

    /// Add an asset pack.
    pub fn add_pack(&mut self, pack: AssetPack) -> &mut Self {
        self.packs.push(pack);
        self
    }

    /// Serialise the bundle.
    pub fn finish(self) -> Result<Vec<u8>> {
        let mut outer = ZipWriter::new();
        outer.add("base.apk", self.base_apk)?;
        for pack in &self.packs {
            let mut inner = ZipWriter::new();
            let manifest = format!(
                "name={}\ndelivery={}\ntargeting={}\n",
                pack.name,
                match pack.delivery {
                    Delivery::InstallTime => "install-time",
                    Delivery::OnDemand => "on-demand",
                },
                pack.targeting
            );
            inner.add("pack.manifest", manifest.into_bytes())?;
            for (path, data) in &pack.files {
                inner.add(format!("assets/{path}"), data.clone())?;
            }
            outer.add(format!("{}.assetpack", pack.name), inner.finish().0)?;
        }
        Ok(outer.finish().0)
    }
}

/// A parsed bundle.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// The base APK bytes.
    pub base_apk: Vec<u8>,
    /// Parsed asset packs.
    pub packs: Vec<AssetPack>,
}

impl Bundle {
    /// Parse a bundle image.
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        let outer = ZipArchive::parse(bytes)?;
        let base_apk = outer
            .get("base.apk")
            .ok_or_else(|| ApkError::Malformed("bundle missing base.apk".into()))?
            .to_vec();
        let mut packs = Vec::new();
        for entry in outer.entries() {
            let Some(name) = entry.name.strip_suffix(".assetpack") else {
                continue;
            };
            let inner = ZipArchive::parse(entry.data)?;
            let manifest = inner
                .get("pack.manifest")
                .ok_or_else(|| ApkError::Malformed(format!("pack '{name}' missing manifest")))?;
            let text = String::from_utf8_lossy(manifest);
            let get = |key: &str| -> String {
                text.lines()
                    .find_map(|l| l.strip_prefix(key))
                    .unwrap_or("")
                    .to_string()
            };
            let delivery = match get("delivery=").as_str() {
                "on-demand" => Delivery::OnDemand,
                _ => Delivery::InstallTime,
            };
            let files = inner
                .entries()
                .iter()
                .filter_map(|e| {
                    e.name
                        .strip_prefix("assets/")
                        .map(|p| (p.to_string(), e.data.to_vec()))
                })
                .collect();
            packs.push(AssetPack {
                name: get("name="),
                delivery,
                targeting: get("targeting="),
                files,
            });
        }
        Ok(Bundle { base_apk, packs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apk::ApkBuilder;

    fn base() -> Vec<u8> {
        ApkBuilder::new("com.example.bundled", 9)
            .finish()
            .unwrap()
            .0
    }

    #[test]
    fn roundtrip_with_packs() {
        let mut b = BundleBuilder::new(base());
        b.add_pack(AssetPack {
            name: "ml_models".into(),
            delivery: Delivery::OnDemand,
            targeting: "soc=qcom".into(),
            files: vec![("detector.dlc".into(), vec![5; 64])],
        });
        b.add_pack(AssetPack {
            name: "textures".into(),
            delivery: Delivery::InstallTime,
            targeting: String::new(),
            files: vec![("t.bin".into(), vec![1])],
        });
        let bytes = b.finish().unwrap();
        let bundle = Bundle::parse(&bytes).unwrap();
        assert_eq!(bundle.packs.len(), 2);
        let ml = &bundle.packs[0];
        assert_eq!(ml.name, "ml_models");
        assert_eq!(ml.delivery, Delivery::OnDemand);
        assert_eq!(ml.targeting, "soc=qcom");
        assert_eq!(ml.files[0].0, "detector.dlc");
        // Base apk is itself parseable.
        let apk = crate::apk::Apk::parse(&bundle.base_apk).unwrap();
        assert_eq!(apk.package(), "com.example.bundled");
    }

    #[test]
    fn bundle_without_packs() {
        let bytes = BundleBuilder::new(base()).finish().unwrap();
        let bundle = Bundle::parse(&bytes).unwrap();
        assert!(bundle.packs.is_empty());
    }

    #[test]
    fn missing_base_rejected() {
        let mut w = ZipWriter::new();
        w.add("something.assetpack", ZipWriter::new().finish().0)
            .unwrap();
        assert!(Bundle::parse(&w.finish().0).is_err());
    }
}
