// corm-tidy: CoRM's project linter (DESIGN.md §10).
//
// Promotes the historical grep rules (tools/lint.sh rules 1/5/6/7/8) to
// semantic checks and adds the CoRM-specific corm-remap-hazard analysis no
// grep can express. One engine: a comment/string-aware C++ token scanner
// that needs nothing but the source files, so a diagnostic is identical on
// every host.
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 usage/environment error.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "audits.h"
#include "call_graph.h"
#include "lock_order.h"
#include "remap_hazard.h"
#include "source_file.h"
#include "token_checks.h"
#include "wire_abi.h"

namespace corm_tidy {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::vector<std::string> files;     // explicit files
  std::vector<std::string> src_dirs;  // --src (recursive *.h/*.cc)
  std::set<std::string> checks;       // empty = all
  std::string audit_root = ".";       // --root, for --audit
  bool list_checks = false;
  bool list_hotpath = false;
  bool quiet = false;
  bool no_interproc = false;          // PR-6 per-function analysis only
  bool audit = false;                 // project contract audits, then exit
  bool wire_abi = false;              // print wire-ABI JSON, then exit
  bool dump_lock_graph = false;       // print lock-order graph, then exit
};

int Usage(std::ostream& os, int code) {
  os << "usage: corm-tidy [options] [files...]\n"
        "  --src <dir>       lint every *.h/*.cc under <dir> (default:\n"
        "                    src/ when no files are given); repeatable\n"
        "  --checks=a,b      run only the named checks\n"
        "  --list-checks     print the check catalog and exit\n"
        "  --list-hotpath    print files carrying the `// corm-hotpath`\n"
        "                    contract marker and exit\n"
        "  --no-interproc    disable the whole-program call-graph analysis\n"
        "                    (per-function checks only, as before v2)\n"
        "  --audit           run the project contract audits (fault sites,\n"
        "                    node counter schema, unset config fields, dead\n"
        "                    modules) against --root and exit\n"
        "  --root <dir>      repo root for --audit (default: .)\n"
        "  --wire-abi        print the wire-ABI layout JSON for the loaded\n"
        "                    files and exit (diffed against the committed\n"
        "                    tools/corm_tidy/wire_abi.json golden in CI)\n"
        "  --dump-lock-graph print the static lock-order graph (ranks and\n"
        "                    held->acquired edges) and exit\n"
        "  -q, --quiet       no summary line\n";
  return code;
}

bool ParseArgs(int argc, char** argv, Options* opt, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--src") {
      if (++i == argc) {
        *err = "--src needs a directory";
        return false;
      }
      opt->src_dirs.push_back(argv[i]);
    } else if (a.rfind("--checks=", 0) == 0) {
      std::stringstream ss(a.substr(9));
      std::string id;
      while (std::getline(ss, id, ',')) {
        if (!id.empty()) opt->checks.insert(id);
      }
    } else if (a == "--no-interproc") {
      opt->no_interproc = true;
    } else if (a == "--audit") {
      opt->audit = true;
    } else if (a == "--root") {
      if (++i == argc) {
        *err = "--root needs a directory";
        return false;
      }
      opt->audit_root = argv[i];
    } else if (a == "--wire-abi") {
      opt->wire_abi = true;
    } else if (a == "--dump-lock-graph") {
      opt->dump_lock_graph = true;
    } else if (a == "--list-checks") {
      opt->list_checks = true;
    } else if (a == "--list-hotpath") {
      opt->list_hotpath = true;
    } else if (a == "-q" || a == "--quiet") {
      opt->quiet = true;
    } else if (a == "-h" || a == "--help") {
      *err = "";
      return false;
    } else if (!a.empty() && a[0] == '-') {
      *err = "unknown option " + a;
      return false;
    } else {
      opt->files.push_back(a);
    }
  }
  return true;
}

bool IsSourceExt(const fs::path& p) {
  return p.extension() == ".h" || p.extension() == ".cc";
}

// Resolves the file set: explicit files, plus recursive walks of --src
// dirs; defaults to src/ when nothing was named.
bool CollectFiles(Options* opt, std::vector<std::string>* out,
                  std::string* err) {
  std::vector<std::string> dirs = opt->src_dirs;
  if (opt->files.empty() && dirs.empty()) {
    if (!fs::is_directory("src")) {
      *err = "no files given and no src/ directory here; pass files or "
             "--src <dir>";
      return false;
    }
    dirs.push_back("src");
  }
  std::set<std::string> seen;
  for (const std::string& f : opt->files) {
    if (seen.insert(f).second) out->push_back(f);
  }
  for (const std::string& d : dirs) {
    if (!fs::is_directory(d)) {
      *err = "--src " + d + " is not a directory";
      return false;
    }
    std::vector<std::string> walked;
    for (const auto& entry : fs::recursive_directory_iterator(d)) {
      if (entry.is_regular_file() && IsSourceExt(entry.path())) {
        walked.push_back(entry.path().generic_string());
      }
    }
    std::sort(walked.begin(), walked.end());
    for (std::string& f : walked) {
      if (seen.insert(f).second) out->push_back(std::move(f));
    }
  }
  return true;
}

bool CheckEnabled(const Options& opt, const char* id) {
  return opt.checks.empty() || opt.checks.count(id) > 0;
}

}  // namespace

int Run(int argc, char** argv) {
  Options opt;
  std::string err;
  if (!ParseArgs(argc, argv, &opt, &err)) {
    if (err.empty()) return Usage(std::cout, 0);
    std::cerr << "corm-tidy: " << err << "\n";
    return Usage(std::cerr, 2);
  }
  for (const std::string& id : opt.checks) {
    const auto& catalog = CheckCatalog();
    if (std::none_of(catalog.begin(), catalog.end(),
                     [&](const CheckInfo& c) { return id == c.id; })) {
      std::cerr << "corm-tidy: unknown check '" << id
                << "' (see --list-checks)\n";
      return 2;
    }
  }

  if (opt.list_checks) {
    for (const CheckInfo& c : CheckCatalog()) {
      std::cout << c.id << "\n    " << c.summary << "\n";
    }
    return 0;
  }

  // The contract audits collect their own file sets (src/ AND tests/ —
  // "exercised by a test" needs the tests) and bypass the lint pipeline.
  if (opt.audit) return RunAudits(opt.audit_root, std::cout);

  std::vector<std::string> paths;
  if (!CollectFiles(&opt, &paths, &err)) {
    std::cerr << "corm-tidy: " << err << "\n";
    return 2;
  }

  std::vector<std::unique_ptr<SourceFile>> files;
  for (const std::string& p : paths) {
    auto f = std::make_unique<SourceFile>();
    if (!SourceFile::Load(p, f.get(), &err)) {
      std::cerr << "corm-tidy: " << err << "\n";
      return 2;
    }
    files.push_back(std::move(f));
  }

  if (opt.list_hotpath) {
    for (const auto& f : files) {
      if (f->is_hotpath()) std::cout << f->path() << "\n";
    }
    return 0;
  }

  std::vector<const SourceFile*> file_ptrs;
  for (const auto& f : files) file_ptrs.push_back(f.get());

  if (opt.wire_abi) {
    WireAbi abi;
    if (!ExtractWireAbi(file_ptrs, &abi, &err)) {
      std::cerr << "corm-tidy: --wire-abi: " << err << "\n";
      return 2;
    }
    PrintWireAbi(abi, std::cout);
    return 0;
  }

  std::vector<Diagnostic> diags;
  DiagSink sink{&diags};

  // Whole-program view: call graph + summaries (remap/lookup/revalidation
  // facts now, may-acquire rank sets deposited by the lock-order pass).
  // --no-interproc reproduces the per-function PR-6 analysis bit-for-bit,
  // which the fixture suite uses to prove the interprocedural catches are
  // new.
  std::unique_ptr<CallGraph> cg;
  if (!opt.no_interproc) {
    cg = std::make_unique<CallGraph>(CallGraph::Build(file_ptrs));
  }

  if (opt.dump_lock_graph) {
    std::vector<Diagnostic> scratch;
    DiagSink scratch_sink{&scratch};
    LockOrderAnalysis::Run(file_ptrs, cg.get(), &scratch_sink)
        .Dump(std::cout);
    return 0;
  }
  if (CheckEnabled(opt, kCheckLockRank)) {
    LockOrderAnalysis::Run(file_ptrs, cg.get(), &sink);
  }

  for (const auto& f : files) {
    if (CheckEnabled(opt, kCheckUnboundedWait)) CheckUnboundedWait(*f, &sink);
    if (CheckEnabled(opt, kCheckEscapeRationale)) {
      CheckEscapeRationale(*f, &sink);
    }
    if (CheckEnabled(opt, kCheckRemapHazard)) {
      CheckRemapHazard(*f, cg.get(), &sink);
    }
    if (CheckEnabled(opt, kCheckRawNew)) CheckRawNew(*f, &sink);
    if (CheckEnabled(opt, kCheckHotpathAlloc)) CheckHotpathAlloc(*f, &sink);
  }

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.col, a.check, a.message) <
                     std::tie(b.file, b.line, b.col, b.check, b.message);
            });
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.col == b.col && a.check == b.check;
                          }),
              diags.end());

  for (const Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ":" << d.col
              << ": warning: " << d.message << " [" << d.check << "]\n";
  }
  if (!opt.quiet) {
    std::cerr << "corm-tidy: " << diags.size() << " diagnostic(s), "
              << sink.suppressed << " suppressed, " << files.size()
              << " file(s)\n";
  }
  return diags.empty() ? 0 : 1;
}

}  // namespace corm_tidy

int main(int argc, char** argv) { return corm_tidy::Run(argc, argv); }
