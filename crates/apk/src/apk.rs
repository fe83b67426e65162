//! The APK container: a ZIP with Android-conventional entry layout plus the
//! Play Store's 100 MB size limit (§3.1).

use crate::crc32::Checksummed;
use crate::dex::{Dex, DexBuilder};
use crate::zip::{ZipArchive, ZipWriter};
use crate::{ApkError, Result};

/// Play Store size limit for a base APK, in bytes (§3.1: "Apks have a size
/// limit of 100MB").
pub const APK_SIZE_LIMIT: usize = 100 * 1024 * 1024;

/// Builder for an APK image.
#[derive(Debug)]
pub struct ApkBuilder {
    package: String,
    version_code: u32,
    dex: DexBuilder,
    writer: ZipWriter,
}

impl ApkBuilder {
    /// Start an APK for `package` (e.g. `"com.example.camera"`).
    pub fn new(package: impl Into<String>, version_code: u32) -> Self {
        ApkBuilder {
            package: package.into(),
            version_code,
            dex: DexBuilder::new(),
            writer: ZipWriter::new(),
        }
    }

    /// Add a code string (API call site) to `classes.dex`.
    pub fn add_code_string(&mut self, s: impl Into<String>) -> &mut Self {
        self.dex.add_string(s);
        self
    }

    /// Add a class reference to `classes.dex` in dotted form.
    pub fn add_class_ref(&mut self, dotted: &str) -> &mut Self {
        self.dex.add_class_ref(dotted);
        self
    }

    /// Add an asset file (models usually live under `assets/`).
    pub fn add_asset(&mut self, path: &str, data: Vec<u8>) -> Result<&mut Self> {
        self.writer.add(format!("assets/{path}"), data)?;
        Ok(self)
    }

    /// Add an asset file whose bytes are shared and already checksummed
    /// (a memoised model file): the builder neither copies nor checksums
    /// it again.
    pub fn add_shared_asset(&mut self, path: &str, data: Checksummed) -> Result<&mut Self> {
        self.writer.add_shared(format!("assets/{path}"), data)?;
        Ok(self)
    }

    /// Add a raw resource entry at an arbitrary path (e.g. `res/raw/x.bin`).
    pub fn add_entry(&mut self, path: &str, data: Vec<u8>) -> Result<&mut Self> {
        self.writer.add(path, data)?;
        Ok(self)
    }

    /// Add a native library under `lib/arm64-v8a/`.
    pub fn add_native_lib(&mut self, soname: &str, symbols: &[&str]) -> Result<&mut Self> {
        let so = crate::nativelib::build_so(soname, symbols);
        self.writer.add(format!("lib/arm64-v8a/{soname}"), so)?;
        Ok(self)
    }

    /// Serialise, enforcing the Play Store size limit. Returns the APK
    /// and its CRC-32 (see [`ZipWriter::finish`]).
    pub fn finish(mut self) -> Result<(Vec<u8>, u32)> {
        let manifest = format!(
            "package: name='{}' versionCode='{}'\nsdkVersion:'29'\n",
            self.package, self.version_code
        );
        self.writer
            .add("AndroidManifest.xml", manifest.into_bytes())?;
        self.writer.add("classes.dex", self.dex.finish())?;
        let (bytes, crc) = self.writer.finish();
        if bytes.len() > APK_SIZE_LIMIT {
            return Err(ApkError::TooLarge { size: bytes.len() });
        }
        Ok((bytes, crc))
    }
}

/// A parsed APK, borrowing the bytes it was parsed from.
#[derive(Debug, Clone)]
pub struct Apk<'a> {
    package: String,
    version_code: u32,
    archive: ZipArchive<'a>,
}

impl<'a> Apk<'a> {
    /// Parse an APK byte stream.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let archive = ZipArchive::parse(bytes)?;
        let manifest = archive
            .get("AndroidManifest.xml")
            .ok_or_else(|| ApkError::Malformed("missing AndroidManifest.xml".into()))?;
        let text = String::from_utf8_lossy(manifest);
        let package = field(&text, "name='").unwrap_or_default();
        let version_code = field(&text, "versionCode='")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if package.is_empty() {
            return Err(ApkError::Malformed("manifest has no package name".into()));
        }
        Ok(Apk {
            package,
            version_code,
            archive,
        })
    }

    /// Declared package name.
    pub fn package(&self) -> &str {
        &self.package
    }

    /// Declared version code.
    pub fn version_code(&self) -> u32 {
        self.version_code
    }

    /// The underlying ZIP archive.
    pub fn archive(&self) -> &ZipArchive<'a> {
        &self.archive
    }

    /// Parse and return the dex string table.
    pub fn dex(&self) -> Result<Dex> {
        let bytes = self
            .archive
            .get("classes.dex")
            .ok_or_else(|| ApkError::NotFound("classes.dex".into()))?;
        Dex::parse(bytes)
    }

    /// All asset entries `(path_within_assets, payload)`.
    pub fn assets(&self) -> impl Iterator<Item = (&'a str, &'a [u8])> + '_ {
        self.archive
            .entries()
            .iter()
            .filter_map(|e| e.name.strip_prefix("assets/").map(|p| (p, e.data)))
    }

    /// All native library entries `(soname, payload)`.
    pub fn native_libs(&self) -> impl Iterator<Item = (&'a str, &'a [u8])> + '_ {
        self.archive.entries().iter().filter_map(|e| {
            e.name
                .rsplit_once('/')
                .filter(|_| e.name.starts_with("lib/"))
                .map(|(_, so)| (so, e.data))
        })
    }

    /// Every entry that could plausibly hold a model: assets, raw resources
    /// and any other non-code entry. The extraction stage filters this by
    /// extension and signature.
    pub fn candidate_files(&self) -> impl Iterator<Item = (&'a str, &'a [u8])> + '_ {
        self.archive.entries().iter().filter_map(|e| {
            let is_code = e.name == "classes.dex" || e.name == "AndroidManifest.xml";
            if is_code || e.name.starts_with("lib/") {
                None
            } else {
                Some((e.name, e.data))
            }
        })
    }
}

fn field(text: &str, key: &str) -> Option<String> {
    let start = text.find(key)? + key.len();
    let rest = &text[start..];
    let end = rest.find('\'')?;
    Some(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = ApkBuilder::new("com.example.beauty", 42);
        b.add_class_ref("org.tensorflow.lite.Interpreter");
        b.add_code_string("loadModel(assets/face_detector.tflite)");
        b.add_asset("face_detector.tflite", vec![0xAB; 256]).unwrap();
        b.add_entry("res/raw/extra.bin", vec![1, 2, 3]).unwrap();
        b.add_native_lib("libtensorflowlite_jni.so", &["TfLiteModelCreate"])
            .unwrap();
        b.finish().unwrap().0
    }

    #[test]
    fn roundtrip_metadata() {
        let bytes = sample();
        let apk = Apk::parse(&bytes).unwrap();
        assert_eq!(apk.package(), "com.example.beauty");
        assert_eq!(apk.version_code(), 42);
    }

    #[test]
    fn assets_and_libs_enumerate() {
        let bytes = sample();
        let apk = Apk::parse(&bytes).unwrap();
        let assets: Vec<&str> = apk.assets().map(|(p, _)| p).collect();
        assert_eq!(assets, vec!["face_detector.tflite"]);
        let libs: Vec<&str> = apk.native_libs().map(|(p, _)| p).collect();
        assert_eq!(libs, vec!["libtensorflowlite_jni.so"]);
    }

    #[test]
    fn candidates_exclude_code_and_libs() {
        let bytes = sample();
        let apk = Apk::parse(&bytes).unwrap();
        let cands: Vec<&str> = apk.candidate_files().map(|(p, _)| p).collect();
        assert!(cands.contains(&"assets/face_detector.tflite"));
        assert!(cands.contains(&"res/raw/extra.bin"));
        assert!(!cands.iter().any(|c| c.starts_with("lib/")));
        assert!(!cands.contains(&"classes.dex"));
    }

    #[test]
    fn dex_strings_visible() {
        let bytes = sample();
        let apk = Apk::parse(&bytes).unwrap();
        let dex = apk.dex().unwrap();
        assert!(dex
            .strings()
            .iter()
            .any(|s| s.contains("org/tensorflow/lite/Interpreter")));
    }

    #[test]
    fn size_limit_enforced() {
        let mut b = ApkBuilder::new("com.example.huge", 1);
        b.add_asset("blob.bin", vec![0; APK_SIZE_LIMIT + 1]).unwrap();
        match b.finish() {
            Err(ApkError::TooLarge { size }) => assert!(size > APK_SIZE_LIMIT),
            other => panic!("expected TooLarge, got {:?}", other.map(|(v, _)| v.len())),
        }
    }

    #[test]
    fn missing_manifest_rejected() {
        let mut w = ZipWriter::new();
        w.add("classes.dex", DexBuilder::new().finish()).unwrap();
        assert!(Apk::parse(&w.finish().0).is_err());
    }
}
