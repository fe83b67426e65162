//! APK expansion files (OBBs).
//!
//! §3.1/§4.2: "Google Play allows additional content to be shared either
//! with expansion files (OBBs) or through Android App Bundles … gaugeNN
//! supports file extraction from … expansion files". An OBB is a ZIP hosted
//! by Google Play under a `main.<versionCode>.<package>.obb` name. The
//! paper's §4.2 finding — no models distributed outside the base APK — is a
//! *measurement*, so the crawler must genuinely download and scan these.

use crate::zip::{ZipArchive, ZipWriter};
use crate::{ApkError, Result};

/// An expansion file paired with its Play-conventional file name,
/// borrowing the bytes it was parsed from.
#[derive(Debug, Clone)]
pub struct Obb<'a> {
    /// `main` or `patch`.
    pub kind: ObbKind,
    /// App version code it expands.
    pub version_code: u32,
    /// Owning package.
    pub package: String,
    /// Contained files.
    pub archive: ZipArchive<'a>,
}

/// OBB flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObbKind {
    /// Primary expansion file.
    Main,
    /// Patch expansion file.
    Patch,
}

impl ObbKind {
    fn label(self) -> &'static str {
        match self {
            ObbKind::Main => "main",
            ObbKind::Patch => "patch",
        }
    }
}

impl<'a> Obb<'a> {
    /// Play-conventional filename, e.g. `main.42.com.example.game.obb`.
    pub fn filename(&self) -> String {
        format!(
            "{}.{}.{}.obb",
            self.kind.label(),
            self.version_code,
            self.package
        )
    }

    /// Parse an OBB from its filename and bytes.
    pub fn parse(filename: &str, bytes: &'a [u8]) -> Result<Self> {
        let rest = filename
            .strip_suffix(".obb")
            .ok_or_else(|| ApkError::Malformed("obb filename must end in .obb".into()))?;
        let mut parts = rest.splitn(3, '.');
        let kind = match parts.next() {
            Some("main") => ObbKind::Main,
            Some("patch") => ObbKind::Patch,
            _ => return Err(ApkError::Malformed("obb kind must be main|patch".into())),
        };
        let version_code: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ApkError::Malformed("obb filename missing version code".into()))?;
        let package = parts
            .next()
            .ok_or_else(|| ApkError::Malformed("obb filename missing package".into()))?
            .to_string();
        Ok(Obb {
            kind,
            version_code,
            package,
            archive: ZipArchive::parse(bytes)?,
        })
    }
}

/// Build an OBB archive from `(path, data)` pairs.
pub fn build_obb(
    kind: ObbKind,
    version_code: u32,
    package: &str,
    files: &[(&str, Vec<u8>)],
) -> Result<(String, Vec<u8>)> {
    let mut w = ZipWriter::new();
    for (path, data) in files {
        w.add(*path, data.clone())?;
    }
    let name = format!("{}.{}.{}.obb", kind.label(), version_code, package);
    Ok((name, w.finish().0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let (name, bytes) = build_obb(
            ObbKind::Main,
            7,
            "com.example.game",
            &[("textures/big.bin", vec![1; 32])],
        )
        .unwrap();
        assert_eq!(name, "main.7.com.example.game.obb");
        let obb = Obb::parse(&name, &bytes).unwrap();
        assert_eq!(obb.kind, ObbKind::Main);
        assert_eq!(obb.version_code, 7);
        assert_eq!(obb.package, "com.example.game");
        assert_eq!(obb.archive.get("textures/big.bin").unwrap().len(), 32);
        assert_eq!(obb.filename(), name);
    }

    #[test]
    fn package_with_dots_parses() {
        let (name, bytes) =
            build_obb(ObbKind::Patch, 3, "com.a.b.c.d", &[("x", vec![])]).unwrap();
        let obb = Obb::parse(&name, &bytes).unwrap();
        assert_eq!(obb.package, "com.a.b.c.d");
        assert_eq!(obb.kind, ObbKind::Patch);
    }

    #[test]
    fn rejects_bad_names() {
        let (bytes, _) = ZipWriter::new().finish();
        assert!(Obb::parse("weird.obb", &bytes).is_err());
        assert!(Obb::parse("main.x.com.a.obb", &bytes).is_err());
        assert!(Obb::parse("main.1.com.a.zip", &bytes).is_err());
    }
}
