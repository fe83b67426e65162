//! Cloud ML API detection (§3.2, §6.4, Fig. 15).
//!
//! gaugeNN "automates the process of decompiling these binaries and
//! performs string matching on the smali files to detect known cloud DNN
//! framework calls", recognising Google Firebase, Google Cloud and Amazon
//! AWS ML services.

use gaugenn_apk::Apk;

/// A cloud ML provider family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Provider {
    /// Google Firebase ML.
    GoogleFirebase,
    /// Google Cloud AI APIs.
    GoogleCloud,
    /// Amazon AWS ML services.
    AmazonAws,
}

impl Provider {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Provider::GoogleFirebase => "Google Firebase ML",
            Provider::GoogleCloud => "Google Cloud AI",
            Provider::AmazonAws => "Amazon AWS ML",
        }
    }

    /// Whether this is a Google-family API (the paper aggregates Firebase
    /// and Google Cloud as "Google AI services").
    pub const fn is_google(self) -> bool {
        matches!(self, Provider::GoogleFirebase | Provider::GoogleCloud)
    }
}

/// Known call-site patterns, in smali-flavoured form.
const PATTERNS: [(Provider, &str); 6] = [
    (Provider::GoogleFirebase, "com/google/firebase/ml"),
    (Provider::GoogleFirebase, "com.google.firebase.ml"),
    (Provider::GoogleCloud, "com/google/cloud/vision"),
    (Provider::GoogleCloud, "com.google.cloud."),
    (Provider::AmazonAws, "com/amazonaws/services"),
    (Provider::AmazonAws, "com.amazonaws.services"),
];

/// Scan smali text for cloud API call sites.
pub fn scan_smali(smali: &str) -> Vec<Provider> {
    let mut out: Vec<Provider> = PATTERNS
        .iter()
        .filter(|(_, pat)| smali.contains(pat))
        .map(|(p, _)| *p)
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Decompile an APK's dex to smali and scan it.
pub fn scan_apk(apk: &Apk<'_>) -> Vec<Provider> {
    match apk.dex() {
        Ok(dex) => scan_smali(&dex.to_smali()),
        Err(_) => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_apk::apk::ApkBuilder;

    #[test]
    fn detects_each_provider() {
        let cases = [
            (
                "Lcom/google/firebase/ml/vision/FirebaseVision;",
                Provider::GoogleFirebase,
            ),
            (
                "Lcom/google/cloud/vision/v1/ImageAnnotatorClient;",
                Provider::GoogleCloud,
            ),
            (
                "Lcom/amazonaws/services/rekognition/AmazonRekognitionClient;",
                Provider::AmazonAws,
            ),
        ];
        for (class_ref, want) in cases {
            let smali = format!("    const-string v0, \"{class_ref}\"\n");
            assert_eq!(scan_smali(&smali), vec![want], "{class_ref}");
        }
    }

    #[test]
    fn multiple_providers_deduped_and_sorted() {
        let smali = "com/google/firebase/ml/x com/google/firebase/ml/y com/amazonaws/services/z";
        let found = scan_smali(smali);
        assert_eq!(found, vec![Provider::GoogleFirebase, Provider::AmazonAws]);
    }

    #[test]
    fn clean_code_yields_nothing() {
        assert!(scan_smali("const-string v0, \"android/widget/TextView\"").is_empty());
    }

    #[test]
    fn scan_through_real_apk() {
        let mut b = ApkBuilder::new("com.example.cloudy", 1);
        b.add_class_ref("com.google.firebase.ml.vision.FirebaseVision");
        let (bytes, _) = b.finish().unwrap();
        let apk = Apk::parse(&bytes).unwrap();
        assert_eq!(scan_apk(&apk), vec![Provider::GoogleFirebase]);
    }

    #[test]
    fn google_family_flag() {
        assert!(Provider::GoogleFirebase.is_google());
        assert!(Provider::GoogleCloud.is_google());
        assert!(!Provider::AmazonAws.is_google());
    }
}
