// fleet may drive gen populations through the engine and obs, but the
// link models below pathmodel are not its business.
package fleet

import (
	_ "wirelesshart/internal/engine"
	_ "wirelesshart/internal/gen"
	_ "wirelesshart/internal/link" // want `import of wirelesshart/internal/link: not a registered edge of the internal/fleet layer`
	_ "wirelesshart/internal/obs"
	_ "wirelesshart/internal/spec"
)
